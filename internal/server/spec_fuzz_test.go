package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"rowhammer/internal/campaign"
)

// FuzzResolveSpec feeds arbitrary bytes through the submit path's spec
// handling: decodeSpec (the POST /v1/campaigns decoder), CampaignSpec
// and Resolve. Invariants: no input panics; an accepted spec is
// normalized, and its job grid holds at least 1 and at most
// campaign.MaxJobs jobs; and an accepted spec keeps its IdentityHash
// when it is re-encoded and resolved again with the execution knobs
// (workers, shards) changed.
func FuzzResolveSpec(f *testing.F) {
	f.Add([]byte(`{"kind":"hcfirst","scale":"tiny"}`))
	f.Add([]byte(`{"kind":"ber","mfrs":["A","B"],"modules_per_mfr":2,"seed":7,"scale":"tiny","temps":[50,55]}`))
	f.Add([]byte(`{"kind":"fig5","scale":"tiny","seed":3,"workers":2,"shards":2}`))
	f.Add([]byte(`{"kind":"exp:wcdp","scale":"tiny"}`))
	f.Add([]byte(`{"kind":"hcfirst","scale":"tiny","job_timeout_ms":1000,"watchdog_factor":3}`))
	f.Add([]byte(`{"kind":"hcfirst","scale":"tiny","watchdog_factor":2}`))
	f.Add([]byte(`{"kind":"hcfirst","scale":"tiny","modules_per_mfr":100000000}`))
	f.Add([]byte(`{"kind":"ber","scale":"tiny","temps":[90,50]}`))
	f.Add([]byte(`{"kind":"nosuch"}`))
	f.Add([]byte(`{"kind":"ber","bogus":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		wire, err := decodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		rsv, ok := resolveWire(wire)
		if !ok {
			return
		}
		if n, err := rsv.Spec.Normalize(); err != nil {
			t.Fatalf("accepted spec does not normalize: %v", err)
		} else if n.IdentityHash() != rsv.Spec.IdentityHash() {
			t.Fatalf("accepted spec is not normalized: %+v", rsv.Spec)
		}
		if mfrs, mods := len(rsv.Spec.Mfrs), rsv.Spec.ModulesPerMfr; mfrs < 1 || mods < 1 || mods > campaign.MaxJobs/mfrs {
			t.Fatalf("accepted grid of %d manufacturers × %d modules", mfrs, mods)
		}

		buf, err := json.Marshal(wire)
		if err != nil {
			t.Fatalf("re-encoding accepted spec: %v", err)
		}
		again, err := decodeSpec(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("decoding re-encoded spec %s: %v", buf, err)
		}
		again.Workers = wire.Workers%8 + 1
		again.Shards = wire.Shards%8 + 2
		rsv2, ok := resolveWire(again)
		if !ok {
			t.Fatalf("re-encoded spec %s rejected with workers=%d shards=%d", buf, again.Workers, again.Shards)
		}
		if got, want := rsv2.Spec.IdentityHash(), rsv.Spec.IdentityHash(); got != want {
			t.Fatalf("identity changed with workers/shards: %s → %s", want, got)
		}
	})
}

// resolveWire runs a decoded wire spec through CampaignSpec and
// Resolve, reporting whether it was accepted.
func resolveWire(wire Spec) (Resolved, bool) {
	raw, err := wire.CampaignSpec()
	if err != nil {
		return Resolved{}, false
	}
	rsv, err := Resolve(raw)
	return rsv, err == nil
}
