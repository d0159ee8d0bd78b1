package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"btrblocks/internal/query"
	"btrblocks/internal/roaring"
)

// planNames is the fixed plan set, in mix order. Each plan exists to
// drive one compressed-domain path; set-up asserts that it does.
var planNames = []string{"q_prune", "q_dict_eq", "q_rle_range", "q_for_range", "q_and_agg", "q_or_bitmap"}

// planVariants is how many literal sets each plan rotates through.
const planVariants = 8

// planCase is one plan with one set of literals and its reference
// answer, computed from the generated (never compressed) values.
type planCase struct {
	name string
	plan *query.Plan
	body []byte // the JSON the client posts; also what parse_plan_us parses

	matched int64
	aggs    []aggWant       // in plan order
	bitmap  *roaring.Bitmap // set for return=bitmap plans

	// fired reports whether the stats show the plan's intended path.
	fired func(query.Stats) bool
}

type aggWant struct {
	count int64
	value float64
}

func rawInt(v int64) json.RawMessage { return json.RawMessage(strconv.FormatInt(v, 10)) }
func rawStr(s string) json.RawMessage {
	b, _ := json.Marshal(s) // a Go string always marshals
	return b
}

// buildPlans derives the literals of every plan variant from the seed
// and answers each by filtering the generated rows.
func buildPlans(seed int64, t *queryTable) ([][]*planCase, error) {
	rows := len(t.ts)
	out := make([][]*planCase, len(planNames))
	for p, name := range planNames {
		for v := 0; v < planVariants; v++ {
			h := mix64(seed, uint64(p*planVariants+v)+1<<40)
			pc := &planCase{name: name}
			var match func(i int) bool
			switch name {
			case "q_prune":
				// A 2.5 % window of the sorted timestamps: the sidecar
				// must rule out most blocks before any byte is read.
				lo := int(h % uint64(rows-rows/40))
				a, b := t.ts[lo], t.ts[lo+rows/40-1]
				pc.plan = &query.Plan{
					Filter:     &query.Node{Op: "range", Column: qTS, Lo: rawInt(a), Hi: rawInt(b)},
					Aggregates: []query.AggSpec{{Op: "count", Column: qTS}},
				}
				match = func(i int) bool { return t.ts[i] >= a && t.ts[i] <= b }
				pc.fired = func(s query.Stats) bool { return s.BlocksPruned*2 >= s.BlocksTotal }
			case "q_dict_eq":
				r := uint8(h % uint64(len(regionNames)))
				pc.plan = &query.Plan{Filter: &query.Node{Op: "eq", Column: qRegion, Value: rawStr(regionNames[r])}}
				match = func(i int) bool { return t.region[i] == r }
				pc.fired = func(s query.Stats) bool { return s.Paths.Dict > 0 && s.Paths.Decoded == 0 }
			case "q_rle_range":
				a := int32(h%4) * 100
				b := a + 100
				pc.plan = &query.Plan{Filter: &query.Node{Op: "range", Column: qStatus, Lo: rawInt(int64(a)), Hi: rawInt(int64(b))}}
				match = func(i int) bool { return t.status[i] >= a && t.status[i] <= b }
				pc.fired = func(s query.Stats) bool { return s.Paths.RLE > 0 && s.Paths.Decoded == 0 }
			case "q_for_range":
				a := 5_000_000 + int32(h%uint64(rows-rows/8))
				b := a + int32(rows/8)
				pc.plan = &query.Plan{Filter: &query.Node{Op: "range", Column: qSeq, Lo: rawInt(int64(a)), Hi: rawInt(int64(b))}}
				match = func(i int) bool { return t.seq[i] >= a && t.seq[i] <= b }
				pc.fired = func(s query.Stats) bool { return s.Paths.FORScanned+s.Paths.FORSkipped > 0 && s.Paths.Decoded == 0 }
			case "q_and_agg":
				r0 := uint8(h % 24)
				in := [3]uint8{r0, (r0 + 7) % 24, (r0 + 13) % 24}
				a := 5_000_000 + int32((h>>8)%uint64(rows-rows/4))
				b := a + int32(rows/4)
				pc.plan = &query.Plan{
					Filter: &query.Node{Op: "and", Children: []*query.Node{
						{Op: "in", Column: qRegion, Values: []json.RawMessage{
							rawStr(regionNames[in[0]]), rawStr(regionNames[in[1]]), rawStr(regionNames[in[2]])}},
						{Op: "range", Column: qSeq, Lo: rawInt(int64(a)), Hi: rawInt(int64(b))},
					}},
					Aggregates: []query.AggSpec{
						{Op: "sum", Column: qAmount}, {Op: "min", Column: qAmount}, {Op: "max", Column: qAmount}},
				}
				match = func(i int) bool {
					r := t.region[i]
					return (r == in[0] || r == in[1] || r == in[2]) && t.seq[i] >= a && t.seq[i] <= b
				}
				pc.fired = func(s query.Stats) bool { return s.Paths.Dict > 0 && s.Paths.Decoded == 0 }
			case "q_or_bitmap":
				st := int32(h%5) * 100
				a := 5_000_000 + int32((h>>8)%uint64(rows-rows/16))
				b := a + int32(rows/16)
				pc.plan = &query.Plan{
					Filter: &query.Node{Op: "or", Children: []*query.Node{
						{Op: "eq", Column: qStatus, Value: rawInt(int64(st))},
						{Op: "range", Column: qSeq, Lo: rawInt(int64(a)), Hi: rawInt(int64(b))},
					}},
					Return: query.ReturnBitmap,
				}
				match = func(i int) bool { return t.status[i] == st || (t.seq[i] >= a && t.seq[i] <= b) }
				pc.fired = func(s query.Stats) bool { return s.Paths.RLE > 0 && s.Paths.Decoded == 0 }
			}
			if err := pc.answer(rows, match, t); err != nil {
				return nil, err
			}
			out[p] = append(out[p], pc)
		}
	}
	return out, nil
}

// answer fills the reference answer by filtering the generated rows.
func (pc *planCase) answer(rows int, match func(int) bool, t *queryTable) error {
	body, err := json.Marshal(pc.plan)
	if err != nil {
		return err
	}
	pc.body = body
	if _, err := query.ParsePlan(body); err != nil {
		return fmt.Errorf("%s: plan does not parse: %w", pc.name, err)
	}
	var sel []uint32
	sum, lo, hi := 0.0, 0.0, 0.0
	for i := 0; i < rows; i++ {
		if !match(i) {
			continue
		}
		if pc.matched == 0 || t.amount[i] < lo {
			lo = t.amount[i]
		}
		if pc.matched == 0 || t.amount[i] > hi {
			hi = t.amount[i]
		}
		sum += t.amount[i]
		pc.matched++
		if pc.plan.Return == query.ReturnBitmap {
			sel = append(sel, uint32(i))
		}
	}
	if pc.matched == 0 {
		return fmt.Errorf("%s: literals select no row; the plan would prove nothing", pc.name)
	}
	for _, a := range pc.plan.Aggregates {
		w := aggWant{count: pc.matched}
		switch a.Op {
		case "sum":
			w.value = sum
		case "min":
			w.value = lo
		case "max":
			w.value = hi
		case "count":
			w.value = float64(pc.matched)
		}
		pc.aggs = append(pc.aggs, w)
	}
	if pc.plan.Return == query.ReturnBitmap {
		pc.bitmap = roaring.FromSlice(sel)
	}
	return nil
}

// check compares a reply with the reference answer.
func (pc *planCase) check(res *query.Result) bool {
	if res == nil || res.Matched != pc.matched || len(res.Aggregates) != len(pc.aggs) {
		return false
	}
	for i, w := range pc.aggs {
		got := res.Aggregates[i]
		v, err := strconv.ParseFloat(got.Value, 64)
		if err != nil || got.Count != w.count || v != w.value {
			return false
		}
	}
	if pc.bitmap != nil {
		bm, used, err := roaring.FromBytes(res.Bitmap)
		if err != nil || used != len(res.Bitmap) || !bm.Equals(pc.bitmap) {
			return false
		}
	}
	return true
}

// pickPlan maps a hash to one plan variant, uniformly over the set.
func pickPlan(plans [][]*planCase, h uint64) *planCase {
	p := plans[h%uint64(len(plans))]
	return p[(h>>16)%uint64(len(p))]
}
