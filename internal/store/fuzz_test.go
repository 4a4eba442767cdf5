package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rowhammer/internal/durable"
)

// fuzzPayloads are the artifact files present in every fuzzed store:
// an index line can only load if it names one of them with the right
// size and CRC.
var fuzzPayloads = map[string][]byte{
	"fig5-7":   []byte(`{"experiment":"fig5"}`),
	"ber-1":    []byte(`{"kind":"ber"}`),
	"table2-0": []byte("{}"),
}

// indexLine is the index line Put writes for one of fuzzPayloads.
func indexLine(f *testing.F, id string) []byte {
	p := fuzzPayloads[id]
	b, err := json.Marshal(Meta{ID: id, Bytes: int64(len(p)), CRC: durable.CRC32C(p)})
	if err != nil {
		f.Fatal(err)
	}
	return durable.AppendCRCLine(nil, b)
}

// FuzzStoreOpen feeds arbitrary bytes to Open as index.jsonl, beside a
// fixed set of payload files. Invariants: no input panics; every loaded
// ID passes validID and its payload reads back through Get; and a
// second Open of the same directory loads the same entries.
func FuzzStoreOpen(f *testing.F) {
	fig5, ber := indexLine(f, "fig5-7"), indexLine(f, "ber-1")
	f.Add(fig5)
	f.Add(append(append([]byte{}, fig5...), ber...))
	f.Add(append(append([]byte{}, fig5...), fig5...)) // re-ingest
	f.Add(fig5[:len(fig5)-3])                         // torn tail
	f.Add(durable.AppendCRCLine(nil, []byte(`{"id":"../escape","bytes":2,"crc":0}`)))
	f.Add(durable.AppendCRCLine(nil, []byte(`{"id":".hidden","bytes":2,"crc":0}`)))
	f.Add(durable.AppendCRCLine(nil, []byte(`{"id":"fig5-7","bytes":1,"crc":1}`)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, index []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "artifacts"), 0o755); err != nil {
			t.Fatal(err)
		}
		for id, p := range fuzzPayloads {
			if err := os.WriteFile(filepath.Join(dir, "artifacts", id+".json"), p, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "index.jsonl"), index, 0o644); err != nil {
			t.Fatal(err)
		}
		s, rep, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		first := s.List(Query{})
		if len(first) != rep.Loaded {
			t.Fatalf("report says %d loaded, List has %d", rep.Loaded, len(first))
		}
		for _, m := range first {
			if err := validID(m.ID); err != nil {
				t.Fatalf("loaded invalid ID: %v", err)
			}
			if _, _, err := s.Get(m.ID); err != nil {
				t.Fatalf("loaded %q but Get fails: %v", m.ID, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, _, err = Open(dir)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer s.Close()
		if second := s.List(Query{}); !reflect.DeepEqual(first, second) {
			t.Fatalf("second Open loaded %v, first %v", second, first)
		}
	})
}
