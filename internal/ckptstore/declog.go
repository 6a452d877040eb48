package ckptstore

import (
	"encoding/binary"
	"fmt"
	"os"

	"rrsched/internal/atomicio"
)

// DefaultSegmentBytes is the decision-log segment rotation threshold when the
// caller does not configure one.
const DefaultSegmentBytes = 4 << 20

// maxLogRecordLen bounds one decision-log record (tenant name plus payload).
const maxLogRecordLen = 1 << 20

// LogRecord is one appended decision: the global round it was decided at and
// its serialized payload. The log stores only non-trivial decisions; rounds
// absent for a tenant were empty, and the reader synthesizes them — that
// elision is what keeps the log linear in decisions made rather than in
// tenants × rounds.
type LogRecord struct {
	Round   int64
	Payload []byte
}

// DecLog is one shard's streaming decision log: append-only segment files
// (seg-00000.log, seg-00001.log, ...) holding length-prefixed records. The
// current segment's tail is buffered in memory and flushed before any read,
// so /v1/decisions serves from disk plus the in-memory tail while resident
// history no longer grows the heap. A torn tail record (crash mid-append) is
// truncated away at open; whole-round rollback happens via TruncateFrom,
// driven by the round of the last committed manifest.
//
// Not safe for concurrent use: each log is owned by its shard goroutine.
type DecLog struct {
	segs  segmentLog
	total int64
}

// OpenDecLog opens (creating if needed) the decision log rooted at dir.
// maxSeg is the segment rotation threshold; 0 selects DefaultSegmentBytes.
// Existing segments are scanned; a torn record at the tail of the last
// segment is truncated away, while corruption in any earlier segment is an
// error (earlier segments were sealed by a successful rotation).
func OpenDecLog(dir string, maxSeg int64) (*DecLog, error) {
	if maxSeg < 0 {
		return nil, fmt.Errorf("ckptstore: negative segment bound %d", maxSeg)
	}
	if maxSeg == 0 {
		maxSeg = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckptstore: creating decision log dir: %w", err)
	}
	l := &DecLog{segs: segmentLog{dir: dir, prefix: "seg-", suffix: ".log",
		what: "decision log segment", maxSeg: maxSeg, buffered: true}}
	total, err := l.segs.recover(func(seg int, path string) (int64, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, fmt.Errorf("ckptstore: reading decision log segment %d: %w", seg, err)
		}
		good, err := scanRecords(data, nil)
		if err != nil {
			return good, fmt.Errorf("%w: %v", errDamaged, err)
		}
		return good, nil
	})
	if err != nil {
		return nil, err
	}
	l.total = total
	return l, nil
}

// scanRecords walks encoded records, invoking fn (when non-nil) per record.
// It returns the offset of the last complete record and an error describing
// the first malformed or truncated one, if any.
func scanRecords(data []byte, fn func(tenant string, rec LogRecord) error) (int64, error) {
	off := int64(0)
	rest := data
	for len(rest) > 0 {
		tenant, round, payload, n, err := decodeRecord(rest)
		if err != nil {
			return off, err
		}
		if fn != nil {
			if err := fn(tenant, LogRecord{Round: round, Payload: payload}); err != nil {
				return off, err
			}
		}
		rest = rest[n:]
		off += int64(n)
	}
	return off, nil
}

// appendRecord encodes one record: uvarint name length, name, uvarint round,
// uvarint payload length, payload.
func appendRecord(buf []byte, tenant string, round int64, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(tenant)))
	buf = append(buf, tenant...)
	buf = binary.AppendUvarint(buf, uint64(round))
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return buf
}

func decodeRecord(data []byte) (tenant string, round int64, payload []byte, n int, err error) {
	nameLen, k := binary.Uvarint(data)
	if k <= 0 || nameLen > maxLogRecordLen {
		return "", 0, nil, 0, fmt.Errorf("ckptstore: decision log record has bad name length")
	}
	n += k
	if uint64(len(data)-n) < nameLen {
		return "", 0, nil, 0, fmt.Errorf("ckptstore: decision log record truncated in name")
	}
	tenant = string(data[n : n+int(nameLen)])
	n += int(nameLen)
	r, k := binary.Uvarint(data[n:])
	if k <= 0 {
		return "", 0, nil, 0, fmt.Errorf("ckptstore: decision log record truncated in round")
	}
	n += k
	payLen, k := binary.Uvarint(data[n:])
	if k <= 0 || payLen > maxLogRecordLen {
		return "", 0, nil, 0, fmt.Errorf("ckptstore: decision log record has bad payload length")
	}
	n += k
	if uint64(len(data)-n) < payLen {
		return "", 0, nil, 0, fmt.Errorf("ckptstore: decision log record truncated in payload")
	}
	payload = data[n : n+int(payLen)]
	n += int(payLen)
	return tenant, int64(r), payload, n, nil
}

// Append records one decision. The write is buffered; Flush (or any read)
// commits it.
func (l *DecLog) Append(tenant string, round int64, payload []byte) error {
	if round < 0 {
		return fmt.Errorf("ckptstore: negative decision round %d", round)
	}
	if len(tenant) == 0 || len(tenant) > maxLogRecordLen || len(payload) > maxLogRecordLen {
		return fmt.Errorf("ckptstore: decision log record out of bounds (tenant %d bytes, payload %d bytes)", len(tenant), len(payload))
	}
	rec := appendRecord(nil, tenant, round, payload)
	if _, _, err := l.segs.append(rec); err != nil {
		return err
	}
	l.total += int64(len(rec))
	return nil
}

// Flush commits the buffered tail to the current segment file.
func (l *DecLog) Flush() error { return l.segs.flush() }

// Bytes returns the total log size across segments, including the buffered
// tail.
func (l *DecLog) Bytes() int64 { return l.total }

// ReadTenant returns every record appended for one tenant, in append order.
// The buffered tail is flushed first, so the result reflects every Append so
// far.
func (l *DecLog) ReadTenant(tenant string) ([]LogRecord, error) {
	var out []LogRecord
	err := l.walk(func(name string, rec LogRecord) error {
		if name == tenant {
			out = append(out, LogRecord{Round: rec.Round, Payload: append([]byte(nil), rec.Payload...)})
		}
		return nil
	})
	return out, err
}

// ReadAll walks every record in the log in append order, invoking fn per
// record. The buffered tail is flushed first. Used at boot when a shard-count
// change forces redistributing the whole log across a new ring.
func (l *DecLog) ReadAll(fn func(tenant string, rec LogRecord) error) error {
	return l.walk(func(name string, rec LogRecord) error {
		return fn(name, LogRecord{Round: rec.Round, Payload: append([]byte(nil), rec.Payload...)})
	})
}

// walk flushes the buffered tail and scans every segment in order; payloads
// passed to fn alias the segment read buffer.
func (l *DecLog) walk(fn func(tenant string, rec LogRecord) error) error {
	if err := l.Flush(); err != nil {
		return err
	}
	segs, err := l.segs.list()
	if err != nil {
		return err
	}
	for _, seg := range segs {
		data, err := os.ReadFile(l.segs.path(seg))
		if err != nil {
			return fmt.Errorf("ckptstore: reading decision log segment %d: %w", seg, err)
		}
		if _, err := scanRecords(data, fn); err != nil {
			return fmt.Errorf("ckptstore: decision log segment %d: %w", seg, err)
		}
	}
	return nil
}

// TruncateFrom drops every record at or past round: the restore-time rollback
// to the last committed manifest. Records are not globally round-ordered (a
// fault-in appends a migrated tenant's older records after newer ones), so
// every segment is scanned and rewritten only if it holds a violating record.
func (l *DecLog) TruncateFrom(round int64) error {
	if err := l.segs.close(); err != nil {
		return err
	}
	segs, err := l.segs.list()
	if err != nil {
		return err
	}
	l.total = 0
	l.segs.seg, l.segs.size = 0, 0
	for _, seg := range segs {
		path := l.segs.path(seg)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("ckptstore: reading decision log segment %d: %w", seg, err)
		}
		var kept []byte
		dirty := false
		if _, err := scanRecords(data, func(name string, rec LogRecord) error {
			if rec.Round >= round {
				dirty = true
				return nil
			}
			kept = appendRecord(kept, name, rec.Round, rec.Payload)
			return nil
		}); err != nil {
			return fmt.Errorf("ckptstore: decision log segment %d: %w", seg, err)
		}
		if dirty {
			if err := atomicio.WriteFile(path, kept, 0o644); err != nil {
				return fmt.Errorf("ckptstore: rewriting decision log segment %d: %w", seg, err)
			}
			data = kept
		}
		l.total += int64(len(data))
		l.segs.seg, l.segs.size = seg, int64(len(data))
	}
	return nil
}

// Close flushes and closes the log.
func (l *DecLog) Close() error { return l.segs.close() }
