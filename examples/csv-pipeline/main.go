// Csv-pipeline: ingest a CSV file, compress it column-by-column into one
// object per column (the data-lake layout), then run a selective scan
// that touches only two of the columns — including the no-copy string
// path, where decompression yields (offset, length) views into the block
// dictionary instead of copied strings.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"btrblocks"
	"btrblocks/internal/csvconv"
	"btrblocks/metadata"
)

func main() {
	dir, err := os.MkdirTemp("", "btrblocks-csv-pipeline")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Write a CSV file (in a real pipeline this already exists).
	csvPath := filepath.Join(dir, "orders.csv")
	var sb strings.Builder
	sb.WriteString("order_id,amount,status,region\n")
	regions := []string{"us-east", "us-west", "eu-central", "ap-south"}
	statuses := []string{"SHIPPED", "PENDING", "RETURNED"}
	for i := 0; i < 150000; i++ {
		fmt.Fprintf(&sb, "%d,%d.%02d,%s,%s\n",
			1000000+i, i%900+10, i%100, statuses[i%3], regions[(i/1000)%4])
	}
	if err := os.WriteFile(csvPath, []byte(sb.String()), 0o644); err != nil {
		log.Fatal(err)
	}

	// 2. Ingest: CSV -> typed columns.
	f, err := os.Open(csvPath)
	if err != nil {
		log.Fatal(err)
	}
	chunk, err := csvconv.ReadChunk(f, []btrblocks.Type{
		btrblocks.TypeInt, btrblocks.TypeDouble, btrblocks.TypeString, btrblocks.TypeString,
	})
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	// 3. Compress one object per column.
	opt := btrblocks.DefaultOptions()
	paths := map[string]string{}
	for _, col := range chunk.Columns {
		data, err := btrblocks.CompressColumn(col, opt)
		if err != nil {
			log.Fatal(err)
		}
		p := filepath.Join(dir, col.Name+".btr")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			log.Fatal(err)
		}
		paths[col.Name] = p
		fmt.Printf("wrote %-10s %8d bytes (%.1fx)\n",
			col.Name, len(data), float64(col.UncompressedBytes())/float64(len(data)))
	}

	// 4. Selective scan: SELECT sum(amount) GROUP BY region touches only
	// two column objects; the rest are never read.
	amountData, err := os.ReadFile(paths["amount"])
	if err != nil {
		log.Fatal(err)
	}
	amounts, err := btrblocks.DecompressColumn(amountData, opt)
	if err != nil {
		log.Fatal(err)
	}
	regionData, err := os.ReadFile(paths["region"])
	if err != nil {
		log.Fatal(err)
	}
	// No-copy string decompression: views into the block dictionaries.
	regionViews, _, err := btrblocks.DecompressStringViews(regionData, opt)
	if err != nil {
		log.Fatal(err)
	}

	sums := map[string]float64{}
	row := 0
	for _, block := range regionViews {
		for i := 0; i < block.Len(); i++ {
			sums[block.At(i)] += amounts.Doubles[row]
			row++
		}
	}
	fmt.Println("\nSELECT region, SUM(amount) FROM orders GROUP BY region:")
	for _, r := range regions {
		fmt.Printf("  %-12s %14.2f\n", r, sums[r])
	}

	// 5. Predicates without decompression: COUNT(*) WHERE status = 'RETURNED'
	// runs directly on the compressed blocks (dictionary lookup + code
	// counting), and the metadata layer prunes blocks before any fetch.
	statusData, err := os.ReadFile(paths["status"])
	if err != nil {
		log.Fatal(err)
	}
	returned, err := btrblocks.Count(statusData, btrblocks.StringEq("RETURNED"), opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCOUNT(*) WHERE status='RETURNED' (computed on compressed data): %d\n", returned)

	meta := metadata.Build(chunk.Columns[0], opt) // order_id summaries
	blocks := meta.PruneIntRange(1_100_000, 1_100_999)
	fmt.Printf("metadata pruning: order_id in [1100000,1100999] touches %d of %d blocks\n",
		len(blocks), len(meta.Blocks))
}
