//go:build !race

package btrblocks_test

const raceBuild = false
