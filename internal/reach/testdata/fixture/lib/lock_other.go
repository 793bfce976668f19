//go:build !unix

package lib

func lockFile() int { return 2 }
