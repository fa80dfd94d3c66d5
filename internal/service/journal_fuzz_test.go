package service

import (
	"testing"

	"mrcprm/internal/sim"
)

// FuzzJournalReplay feeds arbitrary bytes through the recovery path as one
// journal record payload on a fresh engine. Replay must never panic; a
// refused payload is an error that leaves the engine as it was, and an
// applied one leaves the submission registry consistent with what the
// recovery summary counted. The seed corpus (testdata/fuzz) is one real
// segment, record by record, plus the three old-format shapes recovery
// refuses.
func FuzzJournalReplay(f *testing.F) {
	cluster := sim.Cluster{NumResources: 4, MapSlots: 2, ReduceSlots: 2}
	f.Fuzz(func(t *testing.T, payload []byte) {
		e, err := New(Config{Cluster: cluster, Policy: "fifo"})
		if err != nil {
			t.Fatal(err)
		}
		info := &RecoveryInfo{}
		_, err = e.replayPayload(payload, info)
		if err != nil && info.Accepted+info.Rejected > 0 {
			t.Fatalf("refused (%v) yet counted %+v", err, info)
		}
		submits := info.Accepted + info.Rejected
		if len(e.entries) != submits {
			t.Fatalf("registry holds %d entries, summary counted %d (err %v)", len(e.entries), submits, err)
		}
		if e.accepted != info.Accepted || len(e.intake) != info.Accepted || e.rejects != info.Rejected {
			t.Fatalf("accepted=%d intake=%d rejects=%d, summary %+v (err %v)",
				e.accepted, len(e.intake), e.rejects, info, err)
		}
	})
}
