package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format 0.0.4), zero-dependency. Counters and
// gauges render as single samples; histograms render as the conventional
// cumulative _bucket{le=...} series plus _sum and _count. Families are
// emitted in sorted name order so output is deterministic for a given
// registry state. The matching parser below is the reference reader of
// GET /metrics in the obs and service tests: it round-trips the
// exposition and recovers histogram quantiles from a scrape. loadgen's
// stress mode reads its end-to-end latencies from GET /v1/jobs instead.

// promName sanitizes a registry name into a legal Prometheus metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*, with every illegal byte mapped to '_'.
func promName(s string) string {
	if s == "" {
		return "_"
	}
	legal := func(c byte, first bool) bool {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			return true
		case c >= '0' && c <= '9':
			return !first
		}
		return false
	}
	ok := true
	for i := 0; i < len(s); i++ {
		if !legal(s[i], i == 0) {
			ok = false
			break
		}
	}
	if ok {
		return s
	}
	b := []byte(s)
	for i := range b {
		if !legal(b[i], i == 0) {
			b[i] = '_'
		}
	}
	return string(b)
}

func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the given registries in Prometheus text format
// 0.0.4. ns is an optional namespace prefix (e.g. "mrcp_") applied to every
// family name. Counter names keep their conventional "_total" suffix if
// they already carry one; no suffix is invented.
func WritePrometheus(w io.Writer, ns string, counters, gauges map[string]int64, hists []HistSnapshot) error {
	bw := bufio.NewWriter(w)
	writeScalar := func(m map[string]int64, typ string) {
		for _, n := range sortedKeys(m) {
			fam := promName(ns + n)
			fmt.Fprintf(bw, "# TYPE %s %s\n", fam, typ)
			fmt.Fprintf(bw, "%s %d\n", fam, m[n])
		}
	}
	writeScalar(counters, "counter")
	writeScalar(gauges, "gauge")
	for _, h := range hists {
		fam := promName(ns + h.Name)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", fam)
		var cum int64
		for i, c := range h.Buckets {
			cum += c
			if i < numHistBounds {
				fmt.Fprintf(bw, "%s_bucket{le=\"%s\"} %d\n", fam, promFloat(histBounds[i]), cum)
			}
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", fam, h.Count)
		fmt.Fprintf(bw, "%s_sum %s\n", fam, promFloat(h.Sum))
		fmt.Fprintf(bw, "%s_count %d\n", fam, h.Count)
	}
	return bw.Flush()
}

// PromBucket is one cumulative histogram bucket from a scrape.
type PromBucket struct {
	LE  float64 // inclusive upper bound; +Inf for the terminal bucket
	Cum float64 // cumulative observation count
}

// PromHist is a scraped histogram family.
type PromHist struct {
	Buckets []PromBucket // ascending by LE, +Inf last
	Sum     float64
	Count   float64
}

// Snapshot converts a scraped histogram back into a mergeable HistSnapshot,
// provided its finite bucket bounds are exactly this package's shared
// layout. Min is unknown from a scrape (reported as 0) and Max is
// approximated by the upper bound of the highest occupied bucket, so
// quantile estimates remain within the one-bucket-width contract.
func (ph *PromHist) Snapshot(name string) (HistSnapshot, error) {
	finite := 0
	for _, b := range ph.Buckets {
		if !math.IsInf(b.LE, 1) {
			finite++
		}
	}
	if finite != numHistBounds {
		return HistSnapshot{}, fmt.Errorf("obs: scraped histogram %s has %d finite buckets (want %d)",
			name, finite, numHistBounds)
	}
	s := HistSnapshot{Name: name, Count: int64(ph.Count), Sum: ph.Sum,
		Buckets: make([]int64, numHistBuckets)}
	var prev float64
	i := 0
	for _, b := range ph.Buckets {
		if math.IsInf(b.LE, 1) {
			continue
		}
		if b.LE != histBounds[i] {
			return HistSnapshot{}, fmt.Errorf("obs: scraped histogram %s bucket %d bound %v != %v",
				name, i, b.LE, histBounds[i])
		}
		s.Buckets[i] = int64(b.Cum - prev)
		prev = b.Cum
		i++
	}
	s.Buckets[numHistBounds] = s.Count - int64(prev)
	for i, c := range s.Buckets {
		if c < 0 {
			return HistSnapshot{}, fmt.Errorf("obs: scraped histogram %s bucket %d count %d < 0 (non-monotone cumulative series)",
				name, i, c)
		}
		if c > 0 {
			if i < numHistBounds {
				s.Max = histBounds[i]
			} else if s.Count > 0 {
				s.Max = ph.Sum / ph.Count // overflow only: best available guess
			}
		}
	}
	return s, nil
}

// PromScrape is the parsed content of one exposition payload.
type PromScrape struct {
	// Values holds every non-histogram sample (counters and gauges) by
	// full metric name.
	Values map[string]float64
	// Hists holds histogram families by base name (without _bucket/_sum/
	// _count suffixes).
	Hists map[string]*PromHist
	// Types records each family's declared TYPE.
	Types map[string]string
}

// ParsePrometheus parses text exposition format 0.0.4. It is strict enough
// to serve as a well-formedness check in CI: any line that is neither a
// comment, blank, nor a valid sample is an error, histogram series must
// belong to a family declared "# TYPE ... histogram", and bucket series
// must carry a parseable le label.
func ParsePrometheus(r io.Reader) (*PromScrape, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	out := &PromScrape{
		Values: map[string]float64{},
		Hists:  map[string]*PromHist{},
		Types:  map[string]string{},
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.Fields(line)
			if len(parts) >= 4 && parts[1] == "TYPE" {
				out.Types[parts[2]] = parts[3]
			}
			continue
		}
		name, labels, valStr, err := splitPromSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		val, err := parsePromValue(valStr)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", lineNo, valStr, err)
		}
		base, series := histSeries(name, out.Types)
		if base == "" {
			out.Values[name] = val
			continue
		}
		h := out.Hists[base]
		if h == nil {
			h = &PromHist{}
			out.Hists[base] = h
		}
		switch series {
		case "bucket":
			leStr, ok := labels["le"]
			if !ok {
				return nil, fmt.Errorf("line %d: %s_bucket without le label", lineNo, base)
			}
			le, err := parsePromValue(leStr)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad le %q: %v", lineNo, leStr, err)
			}
			h.Buckets = append(h.Buckets, PromBucket{LE: le, Cum: val})
		case "sum":
			h.Sum = val
		case "count":
			h.Count = val
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for base, h := range out.Hists {
		sort.Slice(h.Buckets, func(i, j int) bool { return h.Buckets[i].LE < h.Buckets[j].LE })
		for i := 1; i < len(h.Buckets); i++ {
			if h.Buckets[i].Cum < h.Buckets[i-1].Cum {
				return nil, fmt.Errorf("histogram %s: cumulative bucket counts not monotone", base)
			}
		}
	}
	return out, nil
}

// histSeries classifies a sample name against the declared histogram
// families: it returns the family base name and which series (bucket, sum,
// count) the sample belongs to, or "" when the sample is a plain scalar.
func histSeries(name string, types map[string]string) (base, series string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			b := strings.TrimSuffix(name, suf)
			if types[b] == "histogram" {
				return b, suf[1:]
			}
		}
	}
	return "", ""
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// splitPromSample splits `name{labels} value [timestamp]` into parts. The
// label parser handles quoted values with \" and \\ escapes, which is all
// this repository emits.
func splitPromSample(line string) (name string, labels map[string]string, value string, err error) {
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return "", nil, "", fmt.Errorf("malformed sample %q", line)
	}
	name = line[:i]
	if name == "" {
		return "", nil, "", fmt.Errorf("malformed sample %q", line)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end := -1
		inQuote := false
		for j := 1; j < len(rest); j++ {
			switch {
			case inQuote && rest[j] == '\\':
				j++
			case rest[j] == '"':
				inQuote = !inQuote
			case !inQuote && rest[j] == '}':
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", nil, "", fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err = parsePromLabels(rest[1:end])
		if err != nil {
			return "", nil, "", err
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, "", fmt.Errorf("malformed sample %q", line)
	}
	return name, labels, fields[0], nil
}

func parsePromLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("malformed labels %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("unquoted label value for %q", key)
		}
		var b strings.Builder
		j := 1
		for ; j < len(s); j++ {
			if s[j] == '\\' && j+1 < len(s) {
				j++
				switch s[j] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(s[j])
				}
				continue
			}
			if s[j] == '"' {
				break
			}
			b.WriteByte(s[j])
		}
		if j >= len(s) {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		labels[key] = b.String()
		s = strings.TrimPrefix(strings.TrimSpace(s[j+1:]), ",")
		s = strings.TrimSpace(s)
	}
	return labels, nil
}
