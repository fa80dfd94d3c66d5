package shard

import (
	"fmt"
	"os"

	"mrcprm/internal/service"
)

// RecoveryInfo aggregates what Recover replayed across all segments.
type RecoveryInfo struct {
	// Shards holds each segment's per-engine replay summary, in shard
	// order.
	Shards []*service.RecoveryInfo
	// Records, Accepted, and Rejected are fleet totals.
	Records  int
	Accepted int
	Rejected int
	// Closed reports whether every segment had journaled an intake close.
	Closed bool
}

// Recover rebuilds a sharded router from its N journal segments
// (SegmentPath(Base.JournalPath, 0..N-1)): each segment replays into its
// shard's engine (which restores its own pending work) and the router's
// sequence counter is reconstructed from the replayed records. Start the returned router to run
// the recovered streams; in virtual mode with deterministic solver settings
// the aggregate fingerprint is bit-identical to the uninterrupted sharded
// run's. Every segment must exist: a missing one (a wrong shard count, or
// no journal at all) is an error naming it, never a blank run.
func Recover(cfg Config) (*Router, *RecoveryInfo, error) {
	if cfg.Base.JournalPath == "" {
		return nil, nil, fmt.Errorf("shard: Recover needs Base.JournalPath")
	}
	r, parts, err := newRouter(cfg)
	if err != nil {
		return nil, nil, err
	}
	for s := range parts {
		if _, err := os.Stat(SegmentPath(cfg.Base.JournalPath, s)); err != nil {
			return nil, nil, fmt.Errorf("shard %d: journal segment: %w", s, err)
		}
	}
	agg := &RecoveryInfo{Shards: make([]*service.RecoveryInfo, len(parts)), Closed: true}
	for s := range parts {
		e, info, err := service.Recover(r.shardEngineConfig(s))
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
		r.engines[s] = e
		agg.Shards[s] = info
		agg.Records += info.Records
		agg.Accepted += info.Accepted
		agg.Rejected += info.Rejected
		agg.Closed = agg.Closed && info.Closed
		r.seq += uint64(info.Accepted + info.Rejected)
	}
	r.closed = agg.Closed
	return r, agg, nil
}
