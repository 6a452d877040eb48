package ckptstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strings"
	"sync"
)

// Store is the on-disk content-addressed chunk store. One store serves every
// shard of a service: chunks are immutable and content-addressed, so sharing
// a directory is what makes reshard migration free of data movement.
//
// Chunks live in append-only pack segments (pack-00000.pack, ...), rotated at
// DefaultSegmentBytes. A pack record is a 4-byte big-endian chunk length, the
// 8-byte big-endian chunk ID, then the encoded chunk bytes unchanged. An
// in-memory index maps every chunk ID to its record, packed into one uint64;
// Open rebuilds it from record headers alone, Put deduplicates through it,
// and reads go through ReadAt on pack files kept open, re-verifying the
// content address every time. A torn record at the tail of the last pack (a
// crash mid-append) is truncated away at Open, as the decision log does;
// damage in a sealed pack refuses the store.
//
// The mutex serializes appends and index updates, and guards reads against
// GC closing a pack under them.
type Store struct {
	dir      string
	maxChain int

	mu    sync.RWMutex
	log   segmentLog
	index map[uint64]chunkLoc
	packs []packFile // by slot; a free slot has a nil file
	free  []int      // free slots, reused before the table grows
	tail  int        // slot of the pack appends go to; -1 until one is open
	buf   []byte     // record staging buffer, reused under mu
}

// packFile is one open pack segment.
type packFile struct {
	seg  int
	f    *os.File // read handle; appends go through the segment log
	size int64    // bytes of complete records, dead ones and duplicates included
}

const (
	// recHeaderLen frames a pack record: uint32 chunk length, uint64 chunk ID.
	recHeaderLen = 12
	// maxStagingBuf caps the staging buffer kept between appends, so one
	// huge chunk does not pin its size for the store's lifetime.
	maxStagingBuf = 1 << 20
)

// chunkLoc is a chunk's location packed into one uint64, so the index costs
// one two-word map entry per chunk: the pack slot in the top bits, then the
// record offset within the pack, then the chunk length.
type chunkLoc uint64

const (
	locLenBits  = 27 // chunk lengths up to MaxChunkLen (2^26) inclusive
	locOffBits  = 23 // record offsets below 8 MiB; records start below the rotation bound
	locSlotBits = 64 - locLenBits - locOffBits
	maxPackSlot = 1<<locSlotBits - 1
)

// The packing must cover every legal chunk length and record start.
var (
	_ = [1<<locLenBits - 1 - MaxChunkLen]struct{}{}
	_ = [1<<locOffBits - DefaultSegmentBytes]struct{}{}
)

func makeLoc(slot int, off int64, n int) chunkLoc {
	return chunkLoc(uint64(slot)<<(locLenBits+locOffBits) | uint64(off)<<locLenBits | uint64(n))
}

func (l chunkLoc) slot() int  { return int(l >> (locLenBits + locOffBits)) }
func (l chunkLoc) off() int64 { return int64(l>>locLenBits) & (1<<locOffBits - 1) }
func (l chunkLoc) n() int     { return int(l & (1<<locLenBits - 1)) }

// Open opens the chunk store rooted at dir, rebuilding the index from the
// pack record headers. It creates nothing: a missing directory is an empty
// store, and the first Put creates the directory and the first pack. A
// directory still holding loose *.chunk files from the older
// one-file-per-chunk layout is refused. maxChain bounds delta chains; 0
// selects DefaultMaxChain.
func Open(dir string, maxChain int) (*Store, error) {
	return openStore(dir, maxChain, DefaultSegmentBytes)
}

func openStore(dir string, maxChain int, maxPack int64) (*Store, error) {
	if maxChain < 0 {
		return nil, fmt.Errorf("ckptstore: negative max chain %d", maxChain)
	}
	if maxChain == 0 {
		maxChain = DefaultMaxChain
	}
	if err := refuseLooseChunks(dir); err != nil {
		return nil, err
	}
	s := &Store{
		dir:      dir,
		maxChain: maxChain,
		log:      segmentLog{dir: dir, prefix: "pack-", suffix: ".pack", what: "chunk pack", maxSeg: maxPack},
		index:    map[uint64]chunkLoc{},
		tail:     -1,
	}
	if _, err := s.log.recover(s.scanPack); err != nil {
		s.closePacks()
		return nil, err
	}
	if n := len(s.packs); n > 0 && s.packs[n-1].seg == s.log.seg {
		s.tail = n - 1
	}
	return s, nil
}

// refuseLooseChunks rejects a chunk directory written by the older
// one-file-per-chunk layout (<id>.chunk files), which this store does not
// read.
func refuseLooseChunks(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("ckptstore: scanning chunk dir: %w", err)
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".chunk") || strings.HasSuffix(name, ".chunk.tmp") {
			return fmt.Errorf("ckptstore: %s holds %s from the older one-file-per-chunk layout; this store reads only pack-*.pack segments", dir, name)
		}
	}
	return nil
}

// scanPack indexes one pack from its record headers and keeps the file open
// for reads. Bodies are skipped, not hashed: every read re-verifies its chunk.
// The first copy of a duplicated chunk wins (a crash during GC's copy-forward
// leaves identical copies). Returns the length of the prefix of complete
// records, with an error wrapping errDamaged if a malformed or truncated
// record follows it.
func (s *Store) scanPack(seg int, path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("ckptstore: opening chunk pack %d: %w", seg, err)
	}
	slot, err := s.addPack(seg, f)
	if err != nil {
		_ = f.Close() // read-only handle; the slot error is what matters
		return 0, err
	}
	br := bufio.NewReaderSize(f, 64<<10)
	var off int64
	for {
		hdr, err := br.Peek(recHeaderLen + chunkHeaderLen)
		if err != nil && !errors.Is(err, io.EOF) {
			return off, fmt.Errorf("ckptstore: reading chunk pack %d: %w", seg, err)
		}
		if len(hdr) == 0 {
			return off, nil
		}
		if len(hdr) < recHeaderLen+chunkHeaderLen {
			return off, fmt.Errorf("%w: record at offset %d truncated in its header", errDamaged, off)
		}
		n := int(binary.BigEndian.Uint32(hdr))
		id := binary.BigEndian.Uint64(hdr[4:])
		if err := checkRecordHeader(hdr[recHeaderLen:], n); err != nil {
			return off, fmt.Errorf("%w: record at offset %d: %v", errDamaged, off, err)
		}
		if off >= 1<<locOffBits {
			return off, fmt.Errorf("ckptstore: chunk pack %d has a record at offset %d, past the segment bound", seg, off)
		}
		if _, err := br.Discard(recHeaderLen + n); err != nil {
			if errors.Is(err, io.EOF) {
				return off, fmt.Errorf("%w: record at offset %d truncated in its body", errDamaged, off)
			}
			return off, fmt.Errorf("ckptstore: reading chunk pack %d: %w", seg, err)
		}
		if _, dup := s.index[id]; !dup {
			s.index[id] = makeLoc(slot, off, n)
		}
		off += int64(recHeaderLen + n)
		s.packs[slot].size = off
	}
}

// checkRecordHeader validates what a pack record promises without touching
// its body: a length within bounds and a chunk container header.
func checkRecordHeader(chunkHdr []byte, n int) error {
	if n < chunkHeaderLen || n > MaxChunkLen {
		return fmt.Errorf("chunk length %d out of range", n)
	}
	if string(chunkHdr[:len(chunkMagic)]) != chunkMagic || chunkHdr[len(chunkMagic)] != chunkVersion {
		return fmt.Errorf("not a chunk (bad magic or version)")
	}
	if k := chunkHdr[len(chunkMagic)+1]; k != KindFull && k != KindDelta {
		return fmt.Errorf("unknown chunk kind %d", k)
	}
	return nil
}

// addPack registers an open pack file in a free slot.
func (s *Store) addPack(seg int, f *os.File) (int, error) {
	p := packFile{seg: seg, f: f}
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		s.packs[slot] = p
		return slot, nil
	}
	if len(s.packs) > maxPackSlot {
		return 0, fmt.Errorf("ckptstore: more than %d live chunk packs", maxPackSlot+1)
	}
	s.packs = append(s.packs, p)
	return len(s.packs) - 1, nil
}

// dropPack closes a pack's read handle, removes its file and frees its slot.
func (s *Store) dropPack(slot int) error {
	p := s.packs[slot]
	s.packs[slot] = packFile{seg: -1}
	s.free = append(s.free, slot)
	if err := p.f.Close(); err != nil {
		return fmt.Errorf("ckptstore: closing chunk pack %d: %w", p.seg, err)
	}
	if err := os.Remove(s.log.path(p.seg)); err != nil {
		return fmt.Errorf("ckptstore: removing chunk pack %d: %w", p.seg, err)
	}
	return nil
}

// Close releases the store's file handles. The store must not be used
// afterwards; a read after Close reports the chunk missing.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.log.close()
	s.closePacks()
	s.index = map[uint64]chunkLoc{}
	return err
}

func (s *Store) closePacks() {
	for _, p := range s.packs {
		if p.f != nil {
			_ = p.f.Close() // read-only handles: nothing buffered to lose
		}
	}
	s.packs, s.free, s.tail = nil, nil, -1
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// write commits encoded chunk bytes under their content address, returning
// whether new bytes landed (false = an identical chunk already exists).
func (s *Store) write(id uint64, enc []byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[id]; ok {
		// Content-addressed dedupe: the bytes are already committed.
		return false, nil
	}
	s.buf = binary.BigEndian.AppendUint32(s.buf[:0], uint32(len(enc)))
	s.buf = binary.BigEndian.AppendUint64(s.buf, id)
	s.buf = append(s.buf, enc...)
	err := s.appendRecord(id, s.buf)
	s.trimStaging()
	if err != nil {
		return false, fmt.Errorf("ckptstore: writing chunk %016x: %w", id, err)
	}
	return true, nil
}

func (s *Store) trimStaging() {
	if cap(s.buf) > maxStagingBuf {
		s.buf = nil
	}
}

// appendRecord appends one framed record to the tail pack, one write, and
// indexes it. Callers hold mu.
func (s *Store) appendRecord(id uint64, rec []byte) error {
	seg, off, err := s.log.append(rec)
	if err != nil {
		return err
	}
	if s.tail < 0 || s.packs[s.tail].seg != seg {
		f, err := os.Open(s.log.path(seg))
		if err != nil {
			return fmt.Errorf("ckptstore: opening chunk pack %d: %w", seg, err)
		}
		if s.tail, err = s.addPack(seg, f); err != nil {
			_ = f.Close() // read-only handle; the slot error is what matters
			return err
		}
	}
	s.packs[s.tail].size += int64(len(rec))
	s.index[id] = makeLoc(s.tail, off, len(rec)-recHeaderLen)
	return nil
}

// Has reports whether a chunk is committed.
func (s *Store) Has(id uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[id]
	return ok
}

// get reads and verifies one committed chunk.
func (s *Store) get(id uint64) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	loc, ok := s.index[id]
	if !ok {
		return nil, fmt.Errorf("ckptstore: chunk %016x is not in the store", id)
	}
	p := s.packs[loc.slot()]
	data := make([]byte, loc.n())
	if _, err := p.f.ReadAt(data, loc.off()+recHeaderLen); err != nil {
		return nil, fmt.Errorf("ckptstore: reading chunk %016x from pack %d: %w", id, p.seg, err)
	}
	if err := VerifyChunk(id, data); err != nil {
		return nil, err
	}
	return data, nil
}

// GC removes every committed chunk outside the closure of roots. Orphans are
// exactly the chunks a crash can strand between a chunk write and a manifest
// rename: no committed manifest references them, so no restore will ever read
// them, and removing them is safe at any commit point. Callers run it after
// the manifests naming roots have committed, with puts quiesced.
//
// Dead chunks leave the index at once. Their bytes are reclaimed pack by
// pack: a pack at least half of whose bytes are dead (dead chunks, or the
// losing copies of duplicates) is compacted, its live records copied one at a
// time to the tail pack, sealing the tail first if it is the one compacted,
// and then removed. A pack with fewer dead bytes keeps them until later GCs
// push it over the threshold, so one GC copies no more bytes than it
// reclaims, however the dead records are spread, and sealed packs stay at
// least half live. A reopen re-indexes the dead records still on disk; they
// are orphans no manifest references, and the next GC drops them again. A
// crash mid-copy leaves identical duplicates, and Open keeps one. Returns the
// number of chunks removed from the index.
func (s *Store) GC(roots []uint64) (int, error) {
	live, err := s.Closure(roots)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	liveBytes := make([]int64, len(s.packs))
	for id, loc := range s.index {
		if !live[id] {
			delete(s.index, id)
			removed++
			continue
		}
		liveBytes[loc.slot()] += int64(recHeaderLen + loc.n())
	}
	var dirty []int
	for slot, p := range s.packs {
		if p.f != nil && p.size > 0 && 2*liveBytes[slot] <= p.size {
			dirty = append(dirty, slot)
		}
	}
	if len(dirty) == 0 {
		return removed, nil
	}
	isDirty := make([]bool, len(s.packs))
	for _, slot := range dirty {
		isDirty[slot] = true
	}
	if s.tail >= 0 && isDirty[s.tail] {
		if err := s.log.seal(); err != nil {
			return removed, err
		}
		s.tail = -1
	}
	type move struct {
		id  uint64
		loc chunkLoc
	}
	var moves []move
	for id, loc := range s.index {
		if isDirty[loc.slot()] {
			moves = append(moves, move{id, loc})
		}
	}
	// Copy in pack order, then record order: the reads are sequential and
	// the copies land in the order the originals were written.
	sort.Slice(moves, func(i, j int) bool {
		a, b := moves[i].loc, moves[j].loc
		if sa, sb := s.packs[a.slot()].seg, s.packs[b.slot()].seg; sa != sb {
			return sa < sb
		}
		return a.off() < b.off()
	})
	defer s.trimStaging()
	for _, m := range moves {
		p := s.packs[m.loc.slot()]
		n := recHeaderLen + m.loc.n()
		if cap(s.buf) < n {
			s.buf = make([]byte, n)
		}
		rec := s.buf[:n]
		if _, err := p.f.ReadAt(rec, m.loc.off()); err != nil {
			return removed, fmt.Errorf("ckptstore: reading chunk %016x from pack %d: %w", m.id, p.seg, err)
		}
		if err := s.appendRecord(m.id, rec); err != nil {
			return removed, fmt.Errorf("ckptstore: copying chunk %016x forward: %w", m.id, err)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return s.packs[dirty[i]].seg < s.packs[dirty[j]].seg })
	for _, slot := range dirty {
		if err := s.dropPack(slot); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// List returns the committed chunk IDs in ascending order.
func (s *Store) List() ([]uint64, error) {
	s.mu.RLock()
	ids := make([]uint64, 0, len(s.index))
	for id := range s.index {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}
