package server

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"rowhammer/internal/campaign"
	"rowhammer/internal/leasesvc"
	"rowhammer/internal/shard"
)

// RunPlacement is the placement runner every fleet worker executes —
// `rhfleet -worker` processes and rhserved's in-process workers alike:
// resolve the campaign from the spec.json persisted in the placement's
// shard directory, refuse a placement whose campaign identity differs
// from it, and run the shard under its fenced lease. rc carries the
// worker's side (Lease, LeaseTTL, Owner, hooks); Dir, Assignment,
// Spec, Runner and Drain come from the placement. wrap, when non-nil,
// decorates the resolved runner (fault injection).
func RunPlacement(ctx context.Context, p leasesvc.Placement, drain <-chan struct{}, rc shard.RunConfig, wrap func(campaign.Runner) campaign.Runner) error {
	path := shard.SpecPath(p.Dir)
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var ws Spec
	if err := json.Unmarshal(b, &ws); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	raw, err := ws.CampaignSpec()
	if err != nil {
		return err
	}
	rsv, err := Resolve(raw)
	if err != nil {
		return err
	}
	if got := rsv.Spec.IdentityHash(); got != p.Campaign {
		return fmt.Errorf("placement names campaign %s but %s resolves to %s", p.Campaign, path, got)
	}
	rc.Dir, rc.Assignment, rc.Spec, rc.Runner, rc.Drain = p.Dir, shard.Assignment{Index: p.Shard, Of: p.Of}, rsv.Spec, rsv.Runner, drain
	if wrap != nil {
		rc.Runner = wrap(rc.Runner)
	}
	_, err = shard.RunShard(ctx, rc)
	return err
}
