//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package wal

import "os"

// lockFile is a no-op on platforms without flock semantics: the
// one-process-per-directory rule stays documented but unenforced there.
func lockFile(*os.File) error { return nil }
