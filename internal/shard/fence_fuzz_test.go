package shard_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rowhammer/internal/durable"
	"rowhammer/internal/shard"
)

// raisedFence returns the bytes RaiseFence writes for token.
func raisedFence(f *testing.F, token uint64) []byte {
	path := filepath.Join(f.TempDir(), "seed.fence")
	if err := shard.RaiseFence(path, token); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzReadFence feeds arbitrary bytes to the fence-file parser.
// Invariants: no input panics; a file that exists never reads as the
// missing-file token 0 unless it is a CRC-verified fence line; an
// accepted token round-trips through RaiseFence on a fresh path and
// cannot be lowered there; and no single-bit flip of an accepted file
// reads as a lower token — damage may fail closed, never open.
func FuzzReadFence(f *testing.F) {
	seven := raisedFence(f, 7)
	f.Add(seven)
	f.Add(raisedFence(f, 1<<64-1))
	f.Add(bytes.TrimSuffix(seven, []byte{'\n'})) // no newline
	f.Add(durable.AppendCRCLine(nil, []byte(`{"v":1,"fence":0}`)))
	f.Add(durable.AppendCRCLine(nil, []byte(`{"v":2,"fence":7}`)))
	f.Add([]byte(`{"v":1,"fence":7}` + "\tdeadbeef\n"))
	f.Add([]byte{})
	f.Add([]byte("\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "shard.fence")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tok, err := shard.ReadFence(path)
		if err != nil {
			return
		}
		if _, ok := durable.SplitCRCLine(bytes.TrimSuffix(data, []byte{'\n'})); !ok {
			t.Fatalf("file without a CRC-verified fence line read as token %d", tok)
		}

		fresh := filepath.Join(dir, "fresh.fence")
		if err := shard.RaiseFence(fresh, tok); err != nil {
			t.Fatalf("raise fresh fence to %d: %v", tok, err)
		}
		if got, err := shard.ReadFence(fresh); err != nil || got != tok {
			t.Fatalf("fresh fence reads %d, %v; want %d", got, err, tok)
		}
		if tok > 0 {
			if err := shard.RaiseFence(fresh, tok-1); !errors.Is(err, shard.ErrFenced) {
				t.Fatalf("lowering fence %d: want ErrFenced, got %v", tok, err)
			}
			if got, err := shard.ReadFence(fresh); err != nil || got != tok {
				t.Fatalf("refused lowering changed the fence: %d, %v; want %d", got, err, tok)
			}
		}

		flipped := filepath.Join(dir, "flipped.fence")
		for i := range data {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), data...)
				mut[i] ^= 1 << uint(bit)
				if err := os.WriteFile(flipped, mut, 0o644); err != nil {
					t.Fatal(err)
				}
				if got, err := shard.ReadFence(flipped); err == nil && got < tok {
					t.Fatalf("flip of byte %d bit %d lowered the fence %d to %d", i, bit, tok, got)
				}
			}
		}
	})
}
