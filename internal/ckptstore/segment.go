package ckptstore

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// errDamaged marks a segment scan that stopped at a malformed or truncated
// record, as opposed to an I/O failure. Only damage is repaired (a torn tail)
// or refused (a sealed segment); an I/O error always propagates unchanged.
var errDamaged = errors.New("damaged record")

// segmentLog is the append-only segment machinery shared by the decision log
// and the chunk packs: numbered files <prefix>NNNNN<suffix> in one directory,
// a tail segment opened lazily by the first append, rotation once the tail
// reaches maxSeg bytes, and recovery at open that truncates a torn record off
// the last segment while refusing damage in any sealed one.
//
// Appends are either buffered (the decision log, flushed before reads) or
// written through with one write per record (the chunk packs, where a record
// must be readable the moment its append returns). Not safe for concurrent
// use; owners serialize access.
type segmentLog struct {
	dir      string
	prefix   string
	suffix   string
	what     string // names a segment in errors, e.g. "chunk pack"
	maxSeg   int64
	buffered bool

	f    *os.File
	w    *bufio.Writer // nil for write-through logs
	seg  int           // tail segment index (the next append's target)
	size int64         // bytes in the tail segment
}

func (g *segmentLog) path(seg int) string {
	return filepath.Join(g.dir, fmt.Sprintf("%s%05d%s", g.prefix, seg, g.suffix))
}

// list returns the existing segment indices in ascending order; a missing
// directory holds none.
func (g *segmentLog) list() ([]int, error) {
	entries, err := os.ReadDir(g.dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("ckptstore: scanning %s dir: %w", g.what, err)
	}
	var segs []int
	for _, e := range entries {
		var i int
		if n, err := fmt.Sscanf(e.Name(), g.prefix+"%d"+g.suffix, &i); err != nil || n != 1 {
			continue
		}
		if e.Name() != filepath.Base(g.path(i)) {
			continue
		}
		segs = append(segs, i)
	}
	sort.Ints(segs)
	return segs, nil
}

// recover scans every existing segment in order through scan, which returns
// the length of the segment's prefix of complete records and an error
// wrapping errDamaged if a malformed or truncated record follows it. Damage in
// the last segment is a torn append and is truncated away; damage in any
// earlier one (sealed by a successful rotation) is refused. The tail resumes
// at the last segment, or at a fresh one when the last is already full.
// Returns the total bytes kept.
func (g *segmentLog) recover(scan func(seg int, path string) (int64, error)) (int64, error) {
	segs, err := g.list()
	if err != nil {
		return 0, err
	}
	g.seg, g.size = 0, 0
	var total int64
	for i, seg := range segs {
		path := g.path(seg)
		good, err := scan(seg, path)
		if err != nil {
			if !errors.Is(err, errDamaged) {
				return 0, err
			}
			if i != len(segs)-1 {
				return 0, fmt.Errorf("ckptstore: %s %d corrupt mid-stream: %w", g.what, seg, err)
			}
			if err := os.Truncate(path, good); err != nil {
				return 0, fmt.Errorf("ckptstore: truncating torn %s tail: %w", g.what, err)
			}
		}
		total += good
		g.seg, g.size = seg, good
	}
	if g.size >= g.maxSeg {
		g.seg, g.size = g.seg+1, 0
	}
	return total, nil
}

// append writes one encoded record to the tail segment, opening it on first
// use and rotating once it reaches maxSeg. It returns the segment and offset
// the record landed at.
func (g *segmentLog) append(rec []byte) (int, int64, error) {
	if g.f == nil {
		if err := g.openTail(); err != nil {
			return 0, 0, err
		}
	}
	var err error
	if g.w != nil {
		_, err = g.w.Write(rec)
	} else {
		_, err = g.f.Write(rec)
	}
	if err != nil {
		if g.w == nil {
			// Cut a partly written record back off (a full disk), so the
			// next append does not land behind a torn one.
			if terr := g.f.Truncate(g.size); terr != nil {
				err = errors.Join(err, terr)
			}
		}
		return 0, 0, fmt.Errorf("ckptstore: appending to %s %d: %w", g.what, g.seg, err)
	}
	seg, off := g.seg, g.size
	g.size += int64(len(rec))
	if g.size >= g.maxSeg {
		if err := g.seal(); err != nil {
			return 0, 0, err
		}
	}
	return seg, off, nil
}

// openTail opens (creating if needed) the tail segment for appending. The
// directory is created only when a first segment needs it.
func (g *segmentLog) openTail() error {
	open := func() (*os.File, error) {
		return os.OpenFile(g.path(g.seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	}
	f, err := open()
	if errors.Is(err, fs.ErrNotExist) {
		if err = os.MkdirAll(g.dir, 0o755); err == nil {
			f, err = open()
		}
	}
	if err != nil {
		return fmt.Errorf("ckptstore: opening %s %d: %w", g.what, g.seg, err)
	}
	g.f = f
	if g.buffered {
		g.w = bufio.NewWriter(f)
	}
	return nil
}

// seal closes the tail segment; the next append opens a fresh one.
func (g *segmentLog) seal() error {
	if err := g.close(); err != nil {
		return err
	}
	g.seg++
	g.size = 0
	return nil
}

// flush commits buffered appends to the tail segment file.
func (g *segmentLog) flush() error {
	if g.w == nil {
		return nil
	}
	if err := g.w.Flush(); err != nil {
		return fmt.Errorf("ckptstore: flushing %s: %w", g.what, err)
	}
	return nil
}

// close flushes and closes the tail segment without moving past it.
func (g *segmentLog) close() error {
	if g.f == nil {
		return nil
	}
	if err := g.flush(); err != nil {
		return err
	}
	if err := g.f.Close(); err != nil {
		return fmt.Errorf("ckptstore: closing %s: %w", g.what, err)
	}
	g.f = nil
	g.w = nil
	return nil
}
