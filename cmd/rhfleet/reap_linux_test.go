package main

import "syscall"

// adoptOrphans makes the test process a child subreaper: workers
// orphaned by a SIGKILLed coordinator are reparented here instead of
// to an init that may never reap them, so reapOrphan can collect them
// and a dead worker's PID really disappears.
func adoptOrphans() error {
	const prSetChildSubreaper = 36
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
		return errno
	}
	return nil
}

// reapOrphan collects pid if it is an exited child; a live process is
// left alone.
func reapOrphan(pid int) {
	var ws syscall.WaitStatus
	syscall.Wait4(pid, &ws, syscall.WNOHANG, nil)
}
