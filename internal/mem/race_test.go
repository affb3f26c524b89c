//go:build race

package mem

const raceBuild = true
