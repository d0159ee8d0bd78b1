//go:build race

package blockstore

func init() { raceBuild = true }
