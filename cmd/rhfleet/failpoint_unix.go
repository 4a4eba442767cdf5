//go:build unix

package main

import (
	"io"
	"os"
	"strconv"
	"syscall"

	rh "rowhammer"
	"rowhammer/internal/durable"
)

// armFailpoint installs the crash-injection seam: with v = "N" (the
// RHFLEET_FAILPOINT environment variable, or a worker's per-shard
// drill seam), the process SIGKILLs itself the instant the checkpoint
// writer has emitted exactly N bytes — mid-record, mid-CRC, wherever N
// lands. The crash test suite uses it to prove the kill-anywhere
// guarantee against the real binary; it is never set in normal
// operation.
func armFailpoint(cw *rh.CampaignCheckpointWriter, v string) {
	if v == "" {
		return
	}
	off, err := strconv.ParseInt(v, 10, 64)
	if err != nil || off < 0 {
		return
	}
	cw.Wrap(func(w io.Writer) io.Writer {
		return &durable.FailpointWriter{W: w, Remaining: off, OnTrip: func() error {
			return syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}}
	})
}
