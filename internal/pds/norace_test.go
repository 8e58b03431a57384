//go:build !race

package pds

const raceBuild = false
