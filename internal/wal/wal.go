// Package wal implements the append-only write-ahead journal behind the
// online scheduling service's durability guarantee: every record a caller
// Appends before a crash is either fully recovered on the next Open or
// provably absent (a torn tail), never silently corrupted.
//
// On-disk format. A journal is a flat file of framed records:
//
//	+--------------------+--------------------+-----------------+
//	| length  uint32 LE  | CRC-32 (IEEE) LE   | payload (JSONL) |
//	+--------------------+--------------------+-----------------+
//
// The payload is opaque to this package; by convention callers store one
// JSON object per record (the service layer's journalRecord), which keeps
// journals greppable with `cut`/`jq` after stripping the 8-byte headers.
//
// Torn-tail tolerance. Open scans the file record by record and stops at
// the first anomaly — a short header, a short payload, a zero or oversized
// length, or a CRC mismatch. Everything before the anomaly is returned as
// the recovered prefix; the anomaly and everything after it are truncated
// so the journal is again well-formed for appending. A crash mid-write
// therefore loses at most the record being written, and a flipped bit
// anywhere in a record drops that record and its suffix rather than
// feeding garbage to replay.
//
// Sync policy. SyncAlways fsyncs after every append (the durable default:
// an acknowledged submission survives power loss), SyncBatch fsyncs every
// 64 appends (bounded loss, much cheaper), SyncNever leaves flushing to
// the OS (tests and throwaway runs).
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// MaxRecord bounds one record's payload; an on-disk length above it is
// treated as corruption rather than allocated.
const MaxRecord = 16 << 20

const headerSize = 8

// SyncPolicy selects when appends are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append.
	SyncAlways SyncPolicy = iota
	// SyncBatch fsyncs every batchEvery appends (and on Close).
	SyncBatch
	// SyncNever never fsyncs explicitly; the OS flushes when it pleases.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncNever:
		return "none"
	}
	return "always"
}

// ParseSyncPolicy maps the flag spellings to a policy: "" or "always",
// "batch", and "none" (or "never").
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "none", "never":
		return SyncNever, nil
	}
	return SyncAlways, fmt.Errorf("wal: unknown sync policy %q (want always, batch, or none)", s)
}

// Options tunes a journal.
type Options struct {
	// Sync is the fsync policy; the zero value is SyncAlways.
	Sync SyncPolicy
}

// batchEvery is the append count between fsyncs under SyncBatch.
const batchEvery = 64

// Journal is an open append-only journal. All methods are safe for
// concurrent use.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	opts      Options
	records   int
	torn      int64
	sinceSync int
	scratch   []byte
	closed    bool
}

// Open opens (creating if absent) the journal at path, recovers every
// intact record, truncates any torn tail, and returns the journal
// positioned for appending plus the recovered payloads in append order.
func Open(path string, opts Options) (*Journal, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	recs, good, err := scan(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: scan %s: %w", path, err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	var torn int64
	if size > good {
		torn = size - good
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
		if _, err := f.Seek(good, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: seek %s: %w", path, err)
		}
	}
	return &Journal{f: f, path: path, opts: opts, records: len(recs), torn: torn}, recs, nil
}

// scan reads intact records from the start of f and returns them along
// with the offset just past the last good one. I/O errors other than a
// clean or torn EOF are returned; corruption is not an error, it just ends
// the scan.
func scan(f *os.File) ([][]byte, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	var (
		recs []([]byte)
		good int64
		hdr  [headerSize]byte
	)
	r := &countingReader{r: f}
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break // clean end or torn header
			}
			return nil, 0, err
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > MaxRecord {
			break // corrupt length
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break // torn payload
			}
			return nil, 0, err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt record
		}
		recs = append(recs, payload)
		good = r.n
	}
	return recs, good, nil
}

// countingReader tracks how many bytes have been consumed so scan knows
// the offset of the last intact record without a second pass.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Append frames the payload and writes it, fsyncing per the sync policy.
// The payload must be non-empty and at most MaxRecord bytes.
func (j *Journal) Append(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("wal: empty record")
	}
	if len(payload) > MaxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("wal: append to closed journal %s", j.path)
	}
	need := headerSize + len(payload)
	if cap(j.scratch) < need {
		j.scratch = make([]byte, 0, need+need/2)
	}
	buf := j.scratch[:headerSize]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, payload...)
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("wal: append to %s: %w", j.path, err)
	}
	j.records++
	switch j.opts.Sync {
	case SyncAlways:
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync %s: %w", j.path, err)
		}
	case SyncBatch:
		j.sinceSync++
		if j.sinceSync >= batchEvery {
			j.sinceSync = 0
			if err := j.f.Sync(); err != nil {
				return fmt.Errorf("wal: sync %s: %w", j.path, err)
			}
		}
	}
	return nil
}

// Sync forces an fsync regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.sinceSync = 0
	return j.f.Sync()
}

// Close syncs and closes the journal; further Appends fail. Safe to call
// twice.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	syncErr := j.f.Sync()
	closeErr := j.f.Close()
	if syncErr != nil {
		return fmt.Errorf("wal: sync %s on close: %w", j.path, syncErr)
	}
	return closeErr
}

// Records returns the number of records in the journal: those recovered at
// Open plus those appended since.
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Torn returns how many trailing bytes Open discarded as a torn or corrupt
// tail (0 for a clean open).
func (j *Journal) Torn() int64 { return j.torn }
