package blockstore

import (
	"runtime"
	"unsafe"
)

// This is the only file in the repository that imports unsafe (ci.sh
// checks it). A BTBK payload is little-endian words, which on a
// little-endian host is exactly the memory of the typed slice, so a
// block crosses the wire without a per-value loop. Every other host
// converts through encoding/binary (writeWords, readWords in wire.go),
// the path the tests force on and compare with this one.

// hostLittleEndian is true where wordBytes yields wire byte order.
const hostLittleEndian = runtime.GOARCH == "386" || runtime.GOARCH == "amd64" ||
	runtime.GOARCH == "arm" || runtime.GOARCH == "arm64" || runtime.GOARCH == "loong64" ||
	runtime.GOARCH == "mipsle" || runtime.GOARCH == "mips64le" || runtime.GOARCH == "ppc64le" ||
	runtime.GOARCH == "riscv64" || runtime.GOARCH == "wasm"

// word is a fixed-width wire value.
type word interface {
	int32 | uint32 | int64 | float64
}

// wordBytes returns the memory of s as bytes, in host byte order.
func wordBytes[T word](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}

// stringOf returns b as a string without copying. The caller must not
// write to b afterwards.
func stringOf(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
