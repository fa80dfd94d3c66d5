package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mrcprm/internal/sim"
	"mrcprm/internal/wal"
)

// outageState is what a fault request may change of the simulator's
// outages: the end of the latest window on each resource and the next
// queued event.
type outageState struct {
	ends   []int64
	next   int64
	queued bool
}

func outagesOf(e *Engine) outageState {
	var st outageState
	for r := 0; r < e.sim.Cluster().NumResources; r++ {
		st.ends = append(st.ends, e.sim.OutageEnd(r))
	}
	st.next, st.queued = e.sim.NextEventAt()
	return st
}

// FuzzFaultRequest feeds arbitrary bodies to POST /v1/admin/faults on an
// in-memory engine that already has one outage window on resource 1. No
// body may panic the handler. A 200 outage reply names a window that ends
// after it starts and starts no earlier than the engine's now, and the
// simulator's outages on the resource now end with it; a 4xx leaves the
// simulator's outages as they were. The seed corpus (testdata/fuzz) holds
// an outage now and later, one overlapping the standing window, a negative
// delay, windows that end past the largest time, plans and malformed
// bodies.
func FuzzFaultRequest(f *testing.F) {
	cluster := sim.Cluster{NumResources: 4, MapSlots: 2, ReduceSlots: 2}
	f.Fuzz(func(t *testing.T, body []byte) {
		e, err := New(Config{Cluster: cluster, Manager: deterministicCfg()})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.InjectOutage(1, 500, 1500); err != nil {
			t.Fatal(err)
		}
		before, now := outagesOf(e), e.NowMS()
		rec := httptest.NewRecorder()
		engineHandler(e).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/admin/faults", bytes.NewReader(body)))
		switch {
		case rec.Code == http.StatusOK:
			var reply struct {
				Injected         string
				Resource         int
				DownAtMs, UpAtMs int64
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Fatalf("200 reply %q: %v", rec.Body, err)
			}
			if reply.Injected != "outage" {
				return
			}
			if reply.UpAtMs <= reply.DownAtMs || reply.DownAtMs < now {
				t.Fatalf("%q: outage reply [%d,%d) at now %d", body, reply.DownAtMs, reply.UpAtMs, now)
			}
			if end := e.sim.OutageEnd(reply.Resource); end != reply.UpAtMs {
				t.Fatalf("%q: outage reply ends at %d, the simulator's outages on resource %d at %d",
					body, reply.UpAtMs, reply.Resource, end)
			}
		case rec.Code >= 400 && rec.Code < 500:
			if after := outagesOf(e); !slices.Equal(after.ends, before.ends) || after.next != before.next || after.queued != before.queued {
				t.Fatalf("%q refused with %d changed the outages from %+v to %+v", body, rec.Code, before, after)
			}
		default:
			t.Fatalf("%q: status %d %s", body, rec.Code, rec.Body)
		}
	})
}

// The outage reply names the window the engine journaled and scheduled,
// also when the simulator's clock has passed the start the handler asked
// for: here the test steps the simulator past an outage behind the
// engine's back, so NowMS still reads 0 — the window in which wall-mode
// time moves between the handler's NowMS and the engine's lock. Requests
// the engine refuses journal nothing.
func TestOutageReplyIsJournaledWindow(t *testing.T) {
	cluster := sim.Cluster{NumResources: 4, MapSlots: 2, ReduceSlots: 2}
	path := filepath.Join(t.TempDir(), "run.wal")
	e, err := New(Config{Cluster: cluster, Manager: deterministicCfg(), JournalPath: path, JournalSync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	h := engineHandler(e)
	post := func(body string) (int, map[string]any) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/admin/faults", strings.NewReader(body)))
		var reply map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("%s: reply %q: %v", body, rec.Body, err)
		}
		return rec.Code, reply
	}
	var replies [][2]int64
	outage := func(body string) {
		code, reply := post(body)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %v", body, code, reply)
		}
		replies = append(replies, [2]int64{int64(reply["downAtMs"].(float64)), int64(reply["upAtMs"].(float64))})
	}
	outage(`{"resource":0,"durationMs":1000}`)
	for e.sim.Now() < 1000 {
		if _, err := e.sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if now := e.NowMS(); now != 0 {
		t.Fatalf("the engine's clock reads %d, want the stale 0", now)
	}
	outage(`{"resource":1,"delayMs":200,"durationMs":500}`)
	if want := [2]int64{1000, 1500}; replies[1] != want {
		t.Fatalf("clamped outage reply %v, want %v", replies[1], want)
	}
	for _, body := range []string{
		`{"resource":0,"delayMs":-1,"durationMs":500}`,
		`{"resource":0,"delayMs":9223372036854775807,"durationMs":1}`,
		`{"resource":1,"delayMs":1100,"durationMs":10}`, // overlaps the clamped window
		`{"resource":7,"durationMs":10}`,
	} {
		if code, reply := post(body); code != http.StatusBadRequest {
			t.Fatalf("%s: %d %v, want 400", body, code, reply)
		}
	}
	e.Stop()

	j, recs, err := wal.Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var journaled [][2]int64
	for _, raw := range recs {
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Kind == recOutage {
			journaled = append(journaled, [2]int64{rec.Outage.DownMS, rec.Outage.UpMS})
		}
	}
	if !slices.Equal(journaled, replies) {
		t.Fatalf("journaled outages %v, replies %v", journaled, replies)
	}
}
