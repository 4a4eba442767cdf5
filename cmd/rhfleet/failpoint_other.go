//go:build !unix

package main

import rh "rowhammer"

// armFailpoint is the crash-injection seam; self-SIGKILL needs
// syscall.Kill, so on non-unix platforms the seam is disarmed.
func armFailpoint(cw *rh.CampaignCheckpointWriter, v string) {}
