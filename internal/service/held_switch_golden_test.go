package service

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// heldSwitchJournal is a closed fifo journal whose fault switch lies ahead
// of the clock when it is replayed: 40 submissions, a failure plan switched
// on at the 20th job's arrival, then the intake close.
const (
	heldSwitchJournal = "testdata/held_switch.wal"
	heldSwitchGolden  = "testdata/held_switch.golden"
)

// heldSwitchCfg is the engine the held-switch journal was written by.
func heldSwitchCfg(t *testing.T, path string) Config {
	_, cluster := testStream(t, 1)
	return Config{Cluster: cluster, Policy: "fifo", JournalPath: path, JournalSync: "none"}
}

// writeHeldSwitchJournal records the held-switch journal at path. The fault
// record goes in through journalAppend, not ApplyFaults: a live switch is
// journaled at the clock's present, and this one must lie in the future.
func writeHeldSwitchJournal(t *testing.T, path string) {
	t.Helper()
	jobs, _ := testStream(t, 40)
	e, err := New(heldSwitchCfg(t, path))
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, e, jobs)
	at := jobs[len(jobs)/2].Arrival
	if err := e.journalAppend(&journalRecord{Kind: recFaults, SimMS: at,
		Faults: &FaultSpec{FailRate: 0.1, Seed: 11}}); err != nil {
		t.Fatal(err)
	}
	e.CloseIntake()
	e.Stop() // never started: ends the run and closes the journal
}

// TestHeldSwitchGolden recovers a committed journal whose fault switch
// Recover must hold back until the simulation clock reaches its instant,
// runs it to the end and compares the outcome with the golden. The run
// loop installs the switch at the first step boundary at or past that
// instant; a loop that steps past the boundary first fails tasks at other
// attempts and changes all three values. Rewrite both files with -update
// only for an intended change of behaviour.
func TestHeldSwitchGolden(t *testing.T) {
	if *update {
		if err := os.Remove(heldSwitchJournal); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		writeHeldSwitchJournal(t, heldSwitchJournal)
	}
	data, err := os.ReadFile(heldSwitchJournal)
	if err != nil {
		t.Fatal(err)
	}
	// Recovery appends to the journal it replays, so it gets a copy.
	path := filepath.Join(t.TempDir(), "run.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	e, info, err := Recover(heldSwitchCfg(t, path))
	if err != nil {
		t.Fatal(err)
	}
	if info.Accepted != 40 || info.FaultSwitches != 1 || !info.Closed {
		t.Fatalf("recovered %+v, want 40 accepted, 1 fault switch, closed", *info)
	}
	held := e.scheduledFaults
	if len(held) != 1 {
		t.Fatalf("%d fault switches held back, want 1", len(held))
	}
	runToEnd(t, e)
	m, _ := e.Result()
	if at := held[0].SimMS; at <= 0 || at >= m.MakespanMS {
		t.Fatalf("switch at %d ms is not inside the run (makespan %d ms)", at, m.MakespanMS)
	}
	if m.TasksFailed == 0 || m.TasksRetried == 0 {
		t.Fatalf("%d failed, %d retried tasks: the switch injected nothing", m.TasksFailed, m.TasksRetried)
	}
	got := fmt.Sprintf("fingerprint %016x\ntasksFailed %d\ntasksRetried %d\n",
		m.Fingerprint(), m.TasksFailed, m.TasksRetried)
	if *update {
		if err := os.WriteFile(heldSwitchGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(heldSwitchGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("recovered run:\n%s\ngolden:\n%s", got, want)
	}
}
