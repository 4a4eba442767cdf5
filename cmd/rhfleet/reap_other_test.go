//go:build unix && !linux

package main

// adoptOrphans and reapOrphan are Linux-only (PR_SET_CHILD_SUBREAPER);
// elsewhere orphans are left to init.
func adoptOrphans() error { return nil }
func reapOrphan(int)      {}
