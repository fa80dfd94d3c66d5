package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func mustOpen(t *testing.T, path string, opts Options) (*Journal, [][]byte) {
	t.Helper()
	j, recs, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j, recs
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf(`{"kind":"test","seq":%d,"pad":"%0*d"}`, i, 10+i*7, i))
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	want := payloads(25)
	j, recs := mustOpen(t, path, Options{Sync: SyncNever})
	if len(recs) != 0 || j.Torn() != 0 {
		t.Fatalf("fresh journal recovered %d records, torn %d", len(recs), j.Torn())
	}
	for _, p := range want {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if j.Records() != len(want) {
		t.Fatalf("records %d, want %d", j.Records(), len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := j.Append([]byte("x")); err == nil {
		t.Fatal("append after close succeeded")
	}

	j2, recs := mustOpen(t, path, Options{})
	defer j2.Close()
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i, p := range want {
		if !bytes.Equal(recs[i], p) {
			t.Fatalf("record %d: got %q want %q", i, recs[i], p)
		}
	}
	if j2.Torn() != 0 {
		t.Fatalf("clean reopen reported %d torn bytes", j2.Torn())
	}
}

func TestReopenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	want := payloads(6)
	j, _ := mustOpen(t, path, Options{Sync: SyncBatch, BatchEvery: 2})
	for _, p := range want[:3] {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, recs := mustOpen(t, path, Options{Sync: SyncNever})
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	for _, p := range want[3:] {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs = mustOpen(t, path, Options{})
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records after reopen-append, want %d", len(recs), len(want))
	}
	for i, p := range want {
		if !bytes.Equal(recs[i], p) {
			t.Fatalf("record %d mismatch after reopen-append", i)
		}
	}
}

// write returns the journal file size after appending n records.
func write(t *testing.T, path string, n int) int64 {
	t.Helper()
	j, _ := mustOpen(t, path, Options{Sync: SyncNever})
	for _, p := range payloads(n) {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestTornTailMidRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	write(t, path, 5)
	// Truncate into the middle of the last record's payload.
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	j, recs := mustOpen(t, path, Options{Sync: SyncNever})
	if len(recs) != 4 {
		t.Fatalf("recovered %d records, want 4", len(recs))
	}
	if j.Torn() == 0 {
		t.Fatal("torn bytes not reported")
	}
	// The tail must have been truncated: appending and reopening yields a
	// clean journal of 5 records again.
	if err := j.Append([]byte(`{"kind":"after-torn"}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs := mustOpen(t, path, Options{})
	defer j2.Close()
	if len(recs) != 5 || j2.Torn() != 0 {
		t.Fatalf("post-repair journal has %d records, torn %d", len(recs), j2.Torn())
	}
	if string(recs[4]) != `{"kind":"after-torn"}` {
		t.Fatalf("appended record %q", recs[4])
	}
}

func TestTornTailHeaderBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	size := write(t, path, 3)
	// Leave 3 bytes of a 4th record's header: a torn write that stopped at
	// (almost exactly) a record boundary.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	j, recs := mustOpen(t, path, Options{Sync: SyncNever})
	defer j.Close()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	if j.Torn() != 3 {
		t.Fatalf("torn %d bytes, want 3", j.Torn())
	}
	fi, _ := os.Stat(path)
	if fi.Size() != size {
		t.Fatalf("file size %d after repair, want %d", fi.Size(), size)
	}
}

func TestCRCCorruptionDropsSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	write(t, path, 6)
	// Flip one payload byte inside the third record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Walk two frames to find the third record's payload.
	off := 0
	for i := 0; i < 2; i++ {
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += headerSize + n
	}
	data[off+headerSize+2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs := mustOpen(t, path, Options{Sync: SyncNever})
	defer j.Close()
	if len(recs) != 2 {
		t.Fatalf("recovered %d records past a CRC mismatch, want 2", len(recs))
	}
	if j.Torn() == 0 {
		t.Fatal("corruption not reported as torn bytes")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"": SyncAlways, "always": SyncAlways, "batch": SyncBatch,
		"none": SyncNever, "never": SyncNever,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
	if SyncAlways.String() != "always" || SyncBatch.String() != "batch" || SyncNever.String() != "none" {
		t.Fatal("SyncPolicy.String mismatch")
	}
}

func TestAppendLimits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := mustOpen(t, path, Options{Sync: SyncNever})
	defer j.Close()
	if err := j.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
	if err := j.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
}

// framesOf walks data as a journal independently of scan: the payloads of
// the intact frames up to the first anomaly, and the offset just past them.
func framesOf(data []byte) ([][]byte, int) {
	var recs [][]byte
	off := 0
	for len(data)-off >= headerSize {
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || n > MaxRecord || uint64(len(data)-off-headerSize) < uint64(n) {
			break
		}
		payload := data[off+headerSize : off+headerSize+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		recs = append(recs, payload)
		off += headerSize + int(n)
	}
	return recs, off
}

// FuzzWALOpen writes arbitrary bytes as a journal file and opens it. Open
// must never panic or fail on a readable file; the records it returns are
// the intact frames before the first anomaly, in order; Torn accounts for
// every byte after them, which Open truncates, so a second Open recovers
// the same records from a clean file. The seed corpus (testdata/fuzz) is an
// empty file, one frame, a torn tail and a bad CRC.
func FuzzWALOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, good := framesOf(data)
		j, recs, err := Open(path, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if len(recs) != len(want) || j.Records() != len(want) {
			t.Fatalf("recovered %d records (Records %d), want %d", len(recs), j.Records(), len(want))
		}
		for i := range want {
			if !bytes.Equal(recs[i], want[i]) {
				t.Fatalf("record %d: got %q, want %q", i, recs[i], want[i])
			}
		}
		if j.Torn() != int64(len(data)-good) {
			t.Fatalf("torn %d bytes, want %d", j.Torn(), len(data)-good)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(good) {
			t.Fatalf("file is %v bytes after open (err %v), want the %d intact ones", fi.Size(), err, good)
		}
		j, again := mustOpen(t, path, Options{Sync: SyncNever})
		defer j.Close()
		if len(again) != len(want) || j.Torn() != 0 {
			t.Fatalf("reopen recovered %d records, torn %d; want %d, 0", len(again), j.Torn(), len(want))
		}
	})
}
