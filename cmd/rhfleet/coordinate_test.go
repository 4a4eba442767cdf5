//go:build unix

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rowhammer/internal/leasesvc"
)

// TestCoordinatorReapFreesLeaseAtOnce: the moment a spawned worker's
// Wait returns, the coordinator evicts it from its lease service — the
// worker's shard lease reads Held=false and its registration is gone
// without any scheduler tick or TTL passing (the TTL here is an hour).
// The worker is a real process that SIGKILLs itself.
func TestCoordinatorReapFreesLeaseAtOnce(t *testing.T) {
	ctx := context.Background()
	svc := leasesvc.NewService(time.Hour)
	if _, err := svc.RegisterWorker(ctx, "local-0", "local-0", 1, time.Hour); err != nil {
		t.Fatal(err)
	}
	mine := leasesvc.Key{Campaign: "cafe", Shard: 1, Of: 4}
	other := leasesvc.Key{Campaign: "cafe", Shard: 2, Of: 4}
	if _, err := svc.Acquire(ctx, mine, "local-0", time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Acquire(ctx, other, "remote-w1", time.Hour); err != nil {
		t.Fatal(err)
	}

	var logMu sync.Mutex
	var logs []string
	reaped := make(chan struct{})
	var once sync.Once
	// sh ignores the -worker-id flags the fleet appends; it just dies.
	f := &localFleet{
		svc: svc, exe: "/bin/sh", args: []string{"-c", "kill -KILL $$"},
		pace: time.Hour, drain: make(chan struct{}),
		logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, format)
			logMu.Unlock()
			if strings.HasPrefix(format, "worker %s (pid %d) exited") {
				once.Do(func() { close(reaped) })
			}
		},
	}
	// Drive the death handler itself: it must have evicted by the time
	// it reports the exit.
	f.start(1)
	select {
	case <-reaped:
	case <-time.After(30 * time.Second):
		t.Fatal("worker death never handled")
	}
	v, ok, err := svc.View(ctx, mine)
	if err != nil || !ok || v.Held {
		t.Fatalf("dead worker's lease after reap: %+v ok=%v err=%v, want unheld", v, ok, err)
	}
	for _, w := range svc.Workers() {
		if w.ID == "local-0" && w.Alive {
			t.Fatal("dead worker still registered alive after reap")
		}
	}
	if v, _, _ := svc.View(ctx, other); !v.Held {
		t.Fatal("reap released a lease the dead worker did not own")
	}
	f.close()
	logMu.Lock()
	defer logMu.Unlock()
	if len(logs) < 2 || !strings.HasPrefix(logs[0], "spawned worker") {
		t.Fatalf("fleet logs = %q, want spawn then exit", logs)
	}
}

// TestCoordinateSpawnedWorkersInRegistry: local coordination is the
// degenerate case of placement — every worker a -coordinate run spawns
// registers with the coordinator's lease service and appears in its
// GET /v1/workers inventory like any remote fleet member.
func TestCoordinateSpawnedWorkersInRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real subprocesses")
	}
	dir := t.TempDir()
	// Default scale keeps the campaign running long after the workers
	// register; the coordinator is killed once they are seen.
	cmd := exec.Command(fleetBinary(t), "-coordinate", "3", "-shard-dir", dir,
		"-mfrs", "A,B,C", "-modules", "4", "-exp", "hcfirst", "-seed", "7", "-quiet",
		"-summary", filepath.Join(dir, "sum.json"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, url, ok := strings.Cut(sc.Text(), "lease service listening on "); ok {
				urlCh <- url
			}
		}
	}()
	var url string
	select {
	case url = <-urlCh:
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator never announced its lease service")
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		var ws []struct {
			ID    string `json:"id"`
			Alive bool   `json:"alive"`
			Slots int    `json:"slots"`
		}
		alive := map[string]bool{}
		if resp, err := http.Get(url + "/v1/workers"); err == nil {
			json.NewDecoder(resp.Body).Decode(&ws)
			resp.Body.Close()
		}
		for _, w := range ws {
			if w.Alive && w.Slots == 1 {
				alive[w.ID] = true
			}
		}
		if alive["local-0"] && alive["local-1"] && alive["local-2"] {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("spawned workers never all appeared in /v1/workers: %+v", ws)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
