//go:build race

package ingest

func init() { raceBuild = true }
