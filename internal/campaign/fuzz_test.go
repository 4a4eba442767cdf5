package campaign

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedStream builds a small valid v2 stream for the fuzz corpora.
func fuzzSeedStream() []byte {
	var buf bytes.Buffer
	cw := NewCheckpointWriter(&buf, testSpec([]string{"A"}, 2))
	cw.WriteRecord(Record{Key: "hcfirst/A/0", Kind: KindHCFirst, Mfr: "A", Metrics: map[string]float64{"x": 1}})
	cw.WriteRecord(Record{Key: "hcfirst/A/1", Kind: KindHCFirst, Mfr: "A", Module: 1, Err: "boom"})
	return buf.Bytes()
}

// FuzzReadCheckpoint feeds arbitrary bytes to both checkpoint readers.
// Invariants: no input panics; quarantine retention stays bounded; and
// when the strict reader accepts an input, the report reader agrees
// with it record-for-record. ReadCheckpoint is a thin wrapper that
// refuses any quarantined line, so this pins the wrapper to the one
// parser and precedence rule underneath it.
func FuzzReadCheckpoint(f *testing.F) {
	valid := fuzzSeedStream()
	f.Add(valid)
	f.Add(valid[:len(valid)-9])                                              // torn final record
	f.Add([]byte(`{"key":"hcfirst/A/0","kind":"hcfirst","mfr":"A"}` + "\n")) // v1
	f.Add([]byte("#rhckpt{\"v\":2,\"spec\":\"0123456789abcdef\"}\tdeadbeef\n"))
	f.Add([]byte("not json\tnothex99\n\n\tcafe1234\n"))
	f.Add([]byte{0x00, 0xff, '\t', '\n', '\t'})
	f.Fuzz(func(t *testing.T, data []byte) {
		opts := ResumeOptions{MaxQuarantinedLines: 8}
		rep, err := ReadCheckpointReport(bytes.NewReader(data), opts)
		if err == nil {
			if rep == nil {
				t.Fatal("nil report without error")
			}
			if len(rep.Corrupt) > opts.MaxQuarantinedLines {
				t.Fatalf("retained %d corrupt lines, cap is %d", len(rep.Corrupt), opts.MaxQuarantinedLines)
			}
		}
		recs, serr := ReadCheckpoint(bytes.NewReader(data))
		if serr == nil {
			if err != nil {
				t.Fatalf("strict reader accepted what the report reader rejected: %v", err)
			}
			if len(recs) != len(rep.Records) {
				t.Fatalf("strict adopted %d records, report %d", len(recs), len(rep.Records))
			}
			for k, r := range recs {
				if rr, ok := rep.Records[k]; !ok || rr.Err != r.Err || rr.Attempts != r.Attempts {
					t.Fatalf("readers disagree on record %q", k)
				}
			}
		}
	})
}

// FuzzOpenCheckpoint writes arbitrary bytes as an existing checkpoint
// file and resumes it through OpenCheckpoint as the whole campaign.
// Invariants: the open succeeds exactly when ReadCheckpointReport with
// the same ExpectSpec succeeds, bar a shard-assignment refusal, and
// both adopt the same number of records; after one fresh success
// record is appended, the reloaded file adopts it, still adopts every
// record adopted before the append, and carries a v2 header — a torn
// or headerless tail never swallows the first resumed write.
func FuzzOpenCheckpoint(f *testing.F) {
	spec := testSpec([]string{"A"}, 2)
	valid := fuzzSeedStream()
	f.Add(valid)
	f.Add(valid[:len(valid)-9]) // torn final record
	f.Add([]byte{})
	f.Add([]byte(`{"key":"hcfirst/A/0","kind":"hcfirst","mfr":"A"}` + "\n"))            // v1
	f.Add([]byte(`{"key":"hcfirst/A/0","kind":"hcfirst","mfr":"A","metrics":{"x":1}}`)) // v1, no newline
	var shardFile bytes.Buffer
	sw := NewCheckpointWriter(&shardFile, spec)
	sw.header.Shard, sw.header.Of = 1, 2
	sw.WriteRecord(Record{Key: "hcfirst/A/1", Kind: KindHCFirst, Mfr: "A", Module: 1, Metrics: map[string]float64{"x": 2}})
	f.Add(shardFile.Bytes())
	var foreign bytes.Buffer
	other := spec
	other.Seed++
	NewCheckpointWriter(&foreign, other).WriteHeader()
	f.Add(foreign.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, rerr := ReadCheckpointReport(bytes.NewReader(data), ResumeOptions{ExpectSpec: &spec})
		rep, cw, err := OpenCheckpoint(path, spec, 0, 0)
		switch {
		case rerr != nil && err == nil:
			cw.Close()
			t.Fatalf("open accepted what the reader rejected: %v", rerr)
		case rerr != nil:
			return
		case errors.Is(err, ErrShardMismatch):
			return
		case err != nil:
			t.Fatalf("open rejected what the reader accepted: %v", err)
		}
		if len(rep.Records) != len(want.Records) {
			cw.Close()
			t.Fatalf("open adopted %d records, reader %d", len(rep.Records), len(want.Records))
		}
		fresh := Record{Key: "hcfirst/fuzz/fresh", Kind: KindHCFirst, Mfr: "fuzz", Metrics: map[string]float64{"x": 42}}
		if err := cw.WriteRecord(fresh); err != nil {
			cw.Close()
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := LoadCheckpointReport(path, ResumeOptions{ExpectSpec: &spec})
		if err != nil {
			t.Fatalf("reload after append: %v", err)
		}
		if got, ok := after.Records[fresh.Key]; !ok || got.Failed() || got.Metrics["x"] != 42 {
			t.Fatalf("appended record not adopted: %+v (present %v)", got, ok)
		}
		for k := range rep.Records {
			if _, ok := after.Records[k]; !ok {
				t.Fatalf("record %q adopted before the append is lost after it", k)
			}
		}
		if after.Header == nil {
			t.Fatal("appended checkpoint has no v2 header")
		}
	})
}

// FuzzRecordCRCTrailer round-trips arbitrary payloads through the
// CRC32C trailer codec and requires any single-bit corruption of the
// encoded line to be detected (CRC32 catches all 1-bit errors).
func FuzzRecordCRCTrailer(f *testing.F) {
	f.Add([]byte(`{"key":"hcfirst/A/0"}`))
	f.Add([]byte{})
	f.Add([]byte("payload with \t embedded tab and trailer-alike\tdeadbeef"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		line := appendCRCLine(nil, payload)
		got, ok := splitCRCLine(bytes.TrimSuffix(line, []byte{'\n'}))
		if !ok {
			t.Fatalf("round-trip failed for %q", payload)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload mangled: %q -> %q", payload, got)
		}
		// Flip every bit of the payload and separator. Trailer bytes are
		// exempt: a case-flipped hex digit ('f'→'F') decodes to the same
		// checksum over an intact payload, which is acceptance, not
		// corruption. A flipped payload must never be handed back as the
		// original.
		for i := 0; i < len(line)-9; i++ {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), line...)
				mut[i] ^= 1 << uint(bit)
				if p, ok := splitCRCLine(bytes.TrimSuffix(mut, []byte{'\n'})); ok && bytes.Equal(p, payload) {
					t.Fatalf("flip of byte %d bit %d went undetected", i, bit)
				}
			}
		}
	})
}
