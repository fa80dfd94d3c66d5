package service

// Durability layer: the engine's write-ahead journal and crash recovery.
//
// The journal (internal/wal) is a log of *inputs and decisions*, not of
// simulator state: accepted and rejected submissions, runtime fault
// switches, injected outages, and the intake close. Each takes effect in
// one place, Engine.apply: a live call validates its input, appends the
// record and applies it, and Recover decodes and validates each record
// and applies it through the same call. New and Recover are one
// constructor that opens the journal once (openJournal): New refuses a
// non-empty journal, Recover replays it, and either writes the meta
// record into an empty one. Because a virtual-mode run is a deterministic
// function of exactly those inputs (the golden contract pinned by
// TestVirtualRunMatchesSim), recovery does not need checkpoints: the
// replayed engine re-runs the stream, and the result is bit-identical to
// the uninterrupted run, fingerprint and all. Once the run loop has
// exited, a fault switch or an outage is refused with ErrFinished, and a
// submission with ErrClosed, before anything is journaled.
//
// The bit-exactness guarantee targets the virtual-clock regime in which
// submissions precede Start (the loadgen / CI replay flow) under
// deterministic solver settings (core.DeterministicConfig). Mid-run
// submissions and fault switches are replayed at their recorded simulated
// instants, which reproduces the original run up to the clock position of
// the racing intake drain; wall-mode journals recover every accepted job
// but re-execute the stream on the recovered engine's own clock.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"mrcprm/internal/core"
	"mrcprm/internal/faults"
	"mrcprm/internal/sim"
	"mrcprm/internal/wal"
	"mrcprm/internal/workload"
)

// Journal record kinds.
const (
	recMeta   = "meta"
	recSubmit = "submit"
	recFaults = "faults"
	recOutage = "outage"
	recClose  = "close"
)

// journalRecord is the one-line JSON payload of every WAL record; Kind
// selects which optional fields are meaningful.
type journalRecord struct {
	Kind  string `json:"kind"`
	SimMS int64  `json:"simMs"`

	// meta (first record of every journal).
	Policy  string       `json:"policy,omitempty"`
	Mode    string       `json:"mode,omitempty"`
	Cluster *sim.Cluster `json:"cluster,omitempty"`

	// submit.
	ID       int               `json:"id"`
	Spec     *workload.JobSpec `json:"spec,omitempty"`
	Rejected string            `json:"rejected,omitempty"`

	// faults.
	Faults *FaultSpec `json:"faults,omitempty"`

	// outage.
	Outage *outageRecord `json:"outage,omitempty"`
}

// outageRecord is the journaled form of one injected outage window, with
// the clamping already applied.
type outageRecord struct {
	Resource int   `json:"resource"`
	DownMS   int64 `json:"downMs"`
	UpMS     int64 `json:"upMs"`
}

// FaultSpec is the serializable per-attempt fault plan installed through
// ApplyFaults (and POST /v1/admin/faults): the same knobs as the HTTP
// body, journaled verbatim so recovery can rebuild the identical seeded
// plan. The zero value disables injection.
type FaultSpec struct {
	FailRate      float64 `json:"failRate"`
	StragglerProb float64 `json:"stragglerProb"`
	Seed          uint64  `json:"seed,omitempty"`
}

func (s FaultSpec) enabled() bool { return s.FailRate > 0 || s.StragglerProb > 0 }

// plan builds the seeded injector; nil for a disabled spec.
func (s FaultSpec) plan() (sim.FaultInjector, error) {
	if !s.enabled() {
		return nil, nil
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	return faults.New(faults.Config{
		TaskFailureProb: s.FailRate,
		StragglerProb:   s.StragglerProb,
		Seed1:           seed,
		Seed2:           0xfa17,
	})
}

// ApplyFaults journals and installs the per-attempt fault plan described
// by spec; an all-zero spec disables injection. The plan is replayed on
// recovery at the simulated instant of the switch. Once the run has ended
// the call returns ErrFinished.
func (e *Engine) ApplyFaults(spec FaultSpec) error {
	if _, err := spec.plan(); err != nil {
		return err
	}
	e.intakeMu.Lock()
	defer e.intakeMu.Unlock()
	if e.ended {
		return ErrFinished
	}
	rec := &journalRecord{Kind: recFaults, SimMS: e.view.now, Faults: &spec}
	if err := e.journalAppend(rec); err != nil {
		return err
	}
	e.apply(rec, nil, false)
	return nil
}

// metaRecord describes the engine shape; Recover refuses to replay a
// journal into a mismatched configuration.
func (e *Engine) metaRecord() *journalRecord {
	cluster := e.cfg.Cluster
	return &journalRecord{
		Kind:    recMeta,
		Policy:  e.policy,
		Mode:    e.cfg.Mode.String(),
		Cluster: &cluster,
	}
}

// journalAppend marshals and appends one record; a nil journal is a no-op.
// Append failures are wrapped in ErrJournal so the HTTP layer can map them
// to a server-side 500 rather than a client error.
func (e *Engine) journalAppend(rec *journalRecord) error {
	if e.journal == nil {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("%w: marshal %s record: %v", ErrJournal, rec.Kind, err)
	}
	if err := e.journal.Append(b); err != nil {
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	return nil
}

// RecoveryInfo summarizes what Recover replayed from a journal.
type RecoveryInfo struct {
	// Records is the total number of intact journal records replayed;
	// TornBytes is the size of the discarded torn tail (0 for a clean
	// journal).
	Records   int
	TornBytes int64
	// Accepted and Rejected count replayed submissions by their journaled
	// admission outcome.
	Accepted int
	Rejected int
	// FaultSwitches and Outages count replayed runtime fault records.
	FaultSwitches int
	Outages       int
	// Closed reports whether the journaled run had closed its intake: a
	// recovered virtual engine can then simply be Started to finish the
	// interrupted stream.
	Closed bool
}

// Recover rebuilds an engine from the write-ahead journal at
// cfg.JournalPath: it builds the engine New would, opens the journal
// (truncating any torn tail), applies every journaled submission, fault
// switch, outage, and intake close, and leaves the journal attached so the
// recovered engine keeps appending where the crashed one stopped. Start the
// returned engine to run the recovered stream; in virtual mode with
// deterministic solver settings the finished metrics fingerprint is
// bit-identical to the uninterrupted run's.
func Recover(cfg Config) (*Engine, *RecoveryInfo, error) {
	if cfg.JournalPath == "" {
		return nil, nil, fmt.Errorf("service: Recover needs Config.JournalPath")
	}
	return newEngine(cfg, true)
}

// openJournal opens the journal at cfg.JournalPath, when one is set, and
// attaches it. A journal holding records is replayed when recovering and
// refused otherwise; an empty one, or one torn before its first record,
// gets the meta record the next recovery checks.
func (e *Engine) openJournal(recovering bool) (*RecoveryInfo, error) {
	path := e.cfg.JournalPath
	if path == "" {
		return nil, nil
	}
	pol, err := wal.ParseSyncPolicy(e.cfg.JournalSync)
	if err != nil {
		return nil, err
	}
	j, payloads, err := wal.Open(path, wal.Options{Sync: pol})
	if err != nil {
		return nil, err
	}
	if len(payloads) > 0 && !recovering {
		j.Close()
		return nil, fmt.Errorf("service: journal %s already holds %d records; replay it with Recover or remove the file",
			path, len(payloads))
	}
	e.journal = j
	info := &RecoveryInfo{TornBytes: j.Torn()}
	for i, payload := range payloads {
		if kind, err := e.replayPayload(payload, info); err != nil {
			j.Close()
			return nil, fmt.Errorf("service: journal record %d (%s): %w", i, kind, err)
		}
		info.Records++
	}
	if len(payloads) == 0 {
		if err := e.journalAppend(e.metaRecord()); err != nil {
			j.Close()
			return nil, err
		}
	}
	return info, nil
}

// replayPayload decodes one journal payload, validates it and applies it.
// Decoding is strict (decodeStrict, as for POST bodies): a record carrying a
// field or kind this build does not know — a journal from another format —
// is refused by name instead of replaying as something it was not. The
// record's kind is returned for the caller's error; the decoder fills it in
// even when it goes on to refuse the record.
func (e *Engine) replayPayload(payload []byte, info *RecoveryInfo) (kind string, err error) {
	var rec journalRecord
	if err = decodeStrict(bytes.NewReader(payload), &rec); err == nil {
		err = e.replay(&rec, info)
	}
	return rec.Kind, err
}

// replay checks one decoded record against the engine and what came before
// it, counts it in info and applies it; a refused record changes nothing.
func (e *Engine) replay(rec *journalRecord, info *RecoveryInfo) error {
	var (
		j          *workload.Job
		infeasible bool
	)
	switch rec.Kind {
	case recMeta:
		if rec.Policy != e.policy {
			return fmt.Errorf("journal was written by policy %q, engine runs %q", rec.Policy, e.policy)
		}
		if rec.Mode != e.cfg.Mode.String() {
			return fmt.Errorf("journal was written in %s mode, engine runs %s", rec.Mode, e.cfg.Mode)
		}
		if rec.Cluster != nil && !rec.Cluster.Equal(e.cfg.Cluster) {
			return fmt.Errorf("journal cluster %+v does not match engine cluster %+v", *rec.Cluster, e.cfg.Cluster)
		}
		return nil
	case recSubmit:
		if rec.Spec == nil {
			return fmt.Errorf("submit record without a spec")
		}
		if next := len(e.entries); rec.ID != next {
			return fmt.Errorf("submission id %d out of order (expected %d)", rec.ID, next)
		}
		if rec.Rejected != "" {
			info.Rejected++
			break
		}
		var err error
		if j, err = rec.Spec.Job(rec.ID); err != nil {
			return err
		}
		// Re-derive the infeasibility flag the original SubmitJob computed so
		// the recovered monitor attributes identically.
		infeasible = core.CheckAdmission(e.cfg.Cluster, j, max(rec.SimMS, j.Arrival)) != nil
		info.Accepted++
	case recFaults:
		if rec.Faults == nil {
			return fmt.Errorf("faults record without a spec")
		}
		if _, err := rec.Faults.plan(); err != nil {
			return err
		}
		info.FaultSwitches++
	case recOutage:
		if rec.Outage == nil {
			return fmt.Errorf("outage record without a window")
		}
		info.Outages++
	case recClose:
		info.Closed = true
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	e.apply(rec, j, infeasible)
	return nil
}
