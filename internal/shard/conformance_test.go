package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrcprm/internal/obs"
	"mrcprm/internal/rmkit"
	"mrcprm/internal/service"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// frontEnd is one router behind its public handler constructor; the tests
// below drive it through nothing but HTTP.
type frontEnd struct {
	name    string
	handler http.Handler
	wait    func() error
}

// frontEnds builds a 1-shard and a 2-shard router over the same cluster and
// policy — what mrcpd serves at -shards 1 and -shards 2. base.MaxPending is
// the global bound, split across shards the way mrcpd does. When gates are
// given, gates[i] is the registry gate while front end i's managers are
// built.
func frontEnds(t *testing.T, base service.Config, gates ...*gate) []frontEnd {
	t.Helper()
	base.Cluster = testCluster()
	var fes []frontEnd
	for i, n := range []int{1, 2} {
		if i < len(gates) {
			registryGate.Store(gates[i])
		}
		cfg := base
		cfg.MaxPending = (base.MaxPending + n - 1) / n
		r, err := New(Config{Base: cfg, Shards: n, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		fes = append(fes, frontEnd{fmt.Sprintf("%d-shard", n), NewHandler(r), r.Wait})
	}
	return fes
}

// reply is what the conformance table compares across backends.
type reply struct {
	status     int
	ctype      string
	retryAfter string
	body       string
	// keys is the response object's key set, or the union of the elements'
	// key sets for an array; nil when the body is not JSON.
	keys []string
	id   string // the "id" member, when there is one
}

func call(h http.Handler, method, path, body string) reply {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	rp := reply{
		status:     rec.Code,
		ctype:      rec.Header().Get("Content-Type"),
		retryAfter: rec.Header().Get("Retry-After"),
		body:       rec.Body.String(),
	}
	var v any
	if json.Unmarshal(rec.Body.Bytes(), &v) != nil {
		return rp
	}
	objs, isList := v.([]any)
	if !isList {
		objs = []any{v}
	}
	set := map[string]bool{}
	for _, o := range objs {
		m, _ := o.(map[string]any)
		for k, val := range m {
			set[k] = true
			if k == "id" {
				rp.id = fmt.Sprint(val)
			}
		}
	}
	rp.keys = make([]string, 0, len(set))
	for k := range set {
		rp.keys = append(rp.keys, k)
	}
	sort.Strings(rp.keys)
	return rp
}

// TestHandlerConformance drives one scripted session through a 1-shard and
// a 2-shard router and requires the same status code, Content-Type,
// Retry-After and JSON key set from both on every route, including the whole
// error map: the shard count changes values, never the shape of an answer.
func TestHandlerConformance(t *testing.T) {
	const good = `{"deadlineMs":3600000,"mapExecMs":[2000,2000],"reduceExecMs":[1000]}`
	oversized := `{"deadlineMs":1,"mapExecMs":[1` + strings.Repeat(",1", 1<<19) + `]}`
	steps := []struct {
		name, method, path, body string
		status                   int
		exact                    string // when set, the whole body on both backends
		remember                 string // store the reply's id under this {placeholder}
	}{
		{name: "healthz", method: "GET", path: "/healthz", status: 200},
		{name: "readyz", method: "GET", path: "/readyz", status: 200},
		{name: "no jobs yet", method: "GET", path: "/v1/jobs", status: 200, exact: "[]\n"},
		{name: "no schedule yet", method: "GET", path: "/v1/schedule", status: 200, exact: "[]\n"},

		{name: "malformed", method: "POST", path: "/v1/jobs", body: `{nope`, status: 400},
		{name: "unknown field", method: "POST", path: "/v1/jobs", body: `{"deadlineMs":1,"mapExecMs":[1],"bogus":1}`, status: 400},
		{name: "oversized", method: "POST", path: "/v1/jobs", body: oversized, status: 400},
		{name: "second document", method: "POST", path: "/v1/jobs", body: good + `{"x":1}`, status: 400},
		{name: "trailing garbage", method: "POST", path: "/v1/jobs", body: good + ` trailing`, status: 400},
		{name: "faults trailing data", method: "POST", path: "/v1/admin/faults", body: `{}{}`, status: 400},
		{name: "run trailing data", method: "POST", path: "/v1/admin/run", body: `{"close":true}]`, status: 400},
		{name: "still no jobs", method: "GET", path: "/v1/jobs", status: 200, exact: "[]\n"},

		{name: "infeasible SLA", method: "POST", path: "/v1/jobs", body: `{"deadlineMs":10,"mapExecMs":[500000000]}`, status: 422, remember: "{rejected}"},
		{name: "accepted", method: "POST", path: "/v1/jobs", body: good, status: 202, remember: "{accepted}"},
		{name: "accepted with trailing whitespace, intake now full", method: "POST", path: "/v1/jobs", body: good + " \n", status: 202},
		{name: "shed", method: "POST", path: "/v1/jobs", body: good, status: 429},
		{name: "readyz overloaded", method: "GET", path: "/readyz", status: 503},

		{name: "bad id", method: "GET", path: "/v1/jobs/abc", status: 400},
		{name: "bad trace id", method: "GET", path: "/v1/jobs/abc/trace", status: 400},
		{name: "unknown id", method: "GET", path: "/v1/jobs/9999", status: 404},
		{name: "unknown trace id", method: "GET", path: "/v1/jobs/9999/trace", status: 404},
		{name: "job", method: "GET", path: "/v1/jobs/{accepted}", status: 200},
		{name: "rejected job", method: "GET", path: "/v1/jobs/{rejected}", status: 200},
		{name: "trace", method: "GET", path: "/v1/jobs/{accepted}/trace", status: 200},
		{name: "jobs", method: "GET", path: "/v1/jobs", status: 200},
		{name: "metrics", method: "GET", path: "/v1/metrics", status: 200},
		{name: "prometheus", method: "GET", path: "/metrics", status: 200},

		{name: "fault plan", method: "POST", path: "/v1/admin/faults", body: `{"failRate":0.1,"seed":3}`, status: 200},
		{name: "fault plan off", method: "POST", path: "/v1/admin/faults", body: `{}`, status: 200},
		{name: "outage", method: "POST", path: "/v1/admin/faults", body: `{"resource":5,"durationMs":1000}`, status: 200},
		{name: "outage on unknown resource", method: "POST", path: "/v1/admin/faults", body: `{"resource":99,"durationMs":1000}`, status: 400},

		{name: "run", method: "POST", path: "/v1/admin/run", status: 200},
		{name: "second run", method: "POST", path: "/v1/admin/run", status: 409},
		{name: "run+close", method: "POST", path: "/v1/admin/run", body: `{"close":true}`, status: 200},
		{name: "closed intake", method: "POST", path: "/v1/jobs", body: good, status: 503},
	}
	fes := frontEnds(t, service.Config{
		Policy: "fifo", Admission: true, MaxPending: 2, Telemetry: obs.New(obs.DiscardSink{}),
	})
	ids := make([]map[string]string, len(fes)) // per backend: placeholder -> job id
	for i := range ids {
		ids[i] = map[string]string{}
	}
	for _, st := range steps {
		replies := make([]reply, len(fes))
		for i, fe := range fes {
			path := st.path
			for ph, id := range ids[i] {
				path = strings.ReplaceAll(path, ph, id)
			}
			rp := call(fe.handler, st.method, path, st.body)
			if rp.status != st.status {
				t.Errorf("%s on %s: status %d, want %d: %s", st.name, fe.name, rp.status, st.status, rp.body)
			}
			if st.exact != "" && rp.body != st.exact {
				t.Errorf("%s on %s: body %q, want %q", st.name, fe.name, rp.body, st.exact)
			}
			if st.remember != "" {
				ids[i][st.remember] = rp.id
			}
			replies[i] = rp
		}
		a, b := replies[0], replies[1]
		if a.status != b.status || a.ctype != b.ctype || a.retryAfter != b.retryAfter || !reflect.DeepEqual(a.keys, b.keys) {
			t.Errorf("%s: %s and %s disagree:\n %d %q retry=%q %v\n %d %q retry=%q %v",
				st.name, fes[0].name, fes[1].name,
				a.status, a.ctype, a.retryAfter, a.keys, b.status, b.ctype, b.retryAfter, b.keys)
		}
		switch st.status {
		case 422:
			if !strings.Contains(a.body, `"state":"rejected"`) || a.id == "" || b.id == "" {
				t.Errorf("%s: want id and state rejected, got %s / %s", st.name, a.body, b.body)
			}
		case 429:
			if a.retryAfter == "" {
				t.Errorf("%s: 429 without Retry-After", st.name)
			}
		}
	}

	for _, fe := range fes {
		if err := fe.wait(); err != nil {
			t.Fatalf("%s: run ended with %v", fe.name, err)
		}
	}
	var finals []reply
	for _, fe := range fes {
		rp := call(fe.handler, "GET", "/v1/metrics", "")
		if !strings.Contains(rp.body, `"finished":true`) || !strings.Contains(rp.body, `"fingerprint":"`) {
			t.Errorf("%s: final metrics lack the fingerprint: %s", fe.name, rp.body)
		}
		finals = append(finals, call(fe.handler, "GET", "/readyz", ""))
	}
	if finals[0].status != 503 || finals[0].status != finals[1].status || !reflect.DeepEqual(finals[0].keys, finals[1].keys) {
		t.Errorf("readyz after the run: %+v, %+v", finals[0], finals[1])
	}
}

// gatedPolicy is FIFO behind a gate, registered by name because a router
// builds one manager per shard from the registry (Base.RM would be shared by
// every shard).
const gatedPolicy = "test-gated-fifo"

// gate parks a manager inside its first arrival callback — that is, inside
// sim.Step with the engine's simulator lock held, exactly where a CP solve
// sits — until released.
type gate struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

type gatedRM struct {
	sim.ResourceManager
	g *gate
}

func (m *gatedRM) OnJobArrival(ctx sim.Context, j *workload.Job) error {
	m.g.once.Do(func() { close(m.g.entered) })
	<-m.g.release
	return m.ResourceManager.OnJobArrival(ctx, j)
}

// registryGate is the gate the registered factory hands the managers it
// builds.
var registryGate atomic.Pointer[gate]

func init() {
	rmkit.Register(gatedPolicy, func(c sim.Cluster, o rmkit.Options) (sim.ResourceManager, error) {
		inner, err := rmkit.New("fifo", c, o)
		if err != nil {
			return nil, err
		}
		return &gatedRM{inner, registryGate.Load()}, nil
	})
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}), release: make(chan struct{})}
}

// TestHealthzDoesNotWaitForTheSolver: with the run loop parked inside Step,
// liveness, the metrics snapshot and the Prometheus scrape must still
// answer.
func TestHealthzDoesNotWaitForTheSolver(t *testing.T) {
	probes := []struct{ path, want string }{
		{"/healthz", `"running":true`},
		{"/v1/metrics", `"running":true`},
		{"/metrics", "mrcp_jobs_submitted_total 1"},
	}
	// One gate per front end, so each is known to be parked before its probe.
	gates := []*gate{newGate(), newGate()}
	fes := frontEnds(t, service.Config{Policy: gatedPolicy}, gates...)
	for i, fe := range fes {
		if rp := call(fe.handler, "POST", "/v1/jobs", `{"deadlineMs":3600000,"mapExecMs":[1000]}`); rp.status != 202 {
			t.Fatalf("%s: submit %d %s", fe.name, rp.status, rp.body)
		}
		if rp := call(fe.handler, "POST", "/v1/admin/run", `{"close":true}`); rp.status != 200 {
			t.Fatalf("%s: run %d %s", fe.name, rp.status, rp.body)
		}
		select {
		case <-gates[i].entered:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: the manager never saw the arrival", fe.name)
		}
		for _, p := range probes {
			answered := make(chan reply, 1)
			go func() { answered <- call(fe.handler, "GET", p.path, "") }()
			select {
			case rp := <-answered:
				if rp.status != 200 || !strings.Contains(rp.body, p.want) {
					t.Errorf("%s: %s %d %s", fe.name, p.path, rp.status, rp.body)
				}
			case <-time.After(10 * time.Second):
				t.Errorf("%s: %s waited for the blocked Step", fe.name, p.path)
			}
		}
		close(gates[i].release)
		if err := fe.wait(); err != nil {
			t.Errorf("%s: run ended with %v", fe.name, err)
		}
	}
}
