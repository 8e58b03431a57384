//go:build race

package nvm

const raceBuild = true
