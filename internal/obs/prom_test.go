package obs

import (
	"math"
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"solve_ms":       "solve_ms",
		"mrcp_total":     "mrcp_total",
		"9lives":         "_lives",
		"a-b.c":          "a_b_c",
		"":               "_",
		"ok:colon_name2": "ok:colon_name2",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPromRoundTrip renders a live registry's counters and histograms with
// an explicit gauge map, parses the exposition back, and checks every
// counter, gauge, and histogram bucket value survives.
func TestPromRoundTrip(t *testing.T) {
	tel := New(&MemorySink{})
	tel.Add("jobs_total", 42)
	tel.Add("shed_total", 3)
	for _, v := range []float64{0.5, 1, 2, 3, 5, 8, 13, 21, 500, 9000} {
		tel.Observe("solve_ms", v)
	}
	tel.Observe("wall_e2e_ms", 123.25)

	var sb strings.Builder
	gauges := map[string]int64{"pending": 7}
	if err := WritePrometheus(&sb, "mrcp_", tel.Snapshot(), gauges, tel.HistSnapshots()); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.HasSuffix(text, "\n") {
		t.Fatal("exposition does not end with a newline")
	}

	scrape, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse back: %v\n%s", err, text)
	}
	if got := scrape.Values["mrcp_jobs_total"]; got != 42 {
		t.Fatalf("jobs_total = %v, want 42", got)
	}
	if got := scrape.Values["mrcp_shed_total"]; got != 3 {
		t.Fatalf("shed_total = %v, want 3", got)
	}
	if got := scrape.Values["mrcp_pending"]; got != 7 {
		t.Fatalf("pending = %v, want 7", got)
	}
	if scrape.Types["mrcp_jobs_total"] != "counter" || scrape.Types["mrcp_pending"] != "gauge" {
		t.Fatalf("types = %v", scrape.Types)
	}

	ph := scrape.Hists["mrcp_solve_ms"]
	if ph == nil {
		t.Fatalf("no mrcp_solve_ms histogram in scrape; hists = %v", scrape.Hists)
	}
	if ph.Count != 10 {
		t.Fatalf("scraped count = %v, want 10", ph.Count)
	}
	want := tel.Hist("solve_ms").Snapshot()
	if math.Abs(ph.Sum-want.Sum) > 1e-9 {
		t.Fatalf("scraped sum = %v, want %v", ph.Sum, want.Sum)
	}
	got, err := ph.Snapshot("solve_ms")
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != want.Count {
		t.Fatalf("roundtrip count = %d, want %d", got.Count, want.Count)
	}
	for i := range want.Buckets {
		if got.Buckets[i] != want.Buckets[i] {
			t.Fatalf("roundtrip bucket %d = %d, want %d", i, got.Buckets[i], want.Buckets[i])
		}
	}
	// Quantiles recovered from the scrape stay within one bucket width of
	// the registry's own estimates.
	for _, q := range []float64{0.5, 0.95, 0.99} {
		a, b := got.Quantile(q), want.Quantile(q)
		if a < b/math.Sqrt2-1e-9 || a > b*math.Sqrt2+1e-9 {
			t.Fatalf("q=%v: scraped %v vs registry %v beyond one bucket", q, a, b)
		}
	}

	if _, ok := scrape.Hists["mrcp_wall_e2e_ms"]; !ok {
		t.Fatal("wall histogram missing from scrape")
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	c := map[string]int64{"b_total": 2, "a_total": 1}
	g := map[string]int64{"z": 9, "m": 4}
	var h Histogram
	h.Observe(3)
	hs := []HistSnapshot{func() HistSnapshot { s := h.Snapshot(); s.Name = "lat_ms"; return s }()}
	var s1, s2 strings.Builder
	if err := WritePrometheus(&s1, "", c, g, hs); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&s2, "", c, g, hs); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Fatal("exposition output not deterministic")
	}
	out := s1.String()
	if strings.Index(out, "a_total") > strings.Index(out, "b_total") {
		t.Fatal("families not sorted")
	}
	if !strings.Contains(out, `lat_ms_bucket{le="+Inf"} 1`) {
		t.Fatalf("missing +Inf bucket:\n%s", out)
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"not a metric line at all!{",
		"name{le=\"1\" 3",                     // unterminated label set
		"x_bucket{} nope\n# TYPE x histogram", // bad value
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePrometheus(%q) accepted garbage", bad)
		}
	}
	// Non-monotone cumulative buckets are rejected.
	in := "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n"
	if _, err := ParsePrometheus(strings.NewReader(in)); err == nil {
		t.Error("non-monotone histogram accepted")
	}
}

func TestNilTelemetryWritePrometheus(t *testing.T) {
	var tel *Telemetry
	var sb strings.Builder
	if err := WritePrometheus(&sb, "x_", tel.Snapshot(), nil, tel.HistSnapshots()); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil telemetry wrote %q", sb.String())
	}
}
