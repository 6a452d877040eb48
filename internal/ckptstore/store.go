package ckptstore

import "fmt"

// DefaultMaxChain is the hard bound on delta chain length when the caller
// does not configure one: the eighth consecutive delta cut of a tenant is
// folded back into a full chunk, so a restore never applies more than
// DefaultMaxChain deltas for any tenant.
const DefaultMaxChain = 8

// maxResolveDepth bounds chain walks defensively above any legal chain, so a
// corrupted store with a parent cycle terminates with an error instead of
// recursing forever.
const maxResolveDepth = 1024

// PutResult describes one chunk put.
type PutResult struct {
	// Ref names the committed chunk.
	Ref Ref
	// Wrote reports whether new bytes landed; false means an identical chunk
	// already existed (deduplicated).
	Wrote bool
	// Delta reports whether the chunk was stored as a delta.
	Delta bool
	// Folded reports whether a delta chain hit the length bound and was
	// folded into a full chunk (the compaction event).
	Folded bool
	// Bytes is the encoded chunk size (also counted when deduplicated — it is
	// the size a migration of this chunk would move).
	Bytes int
}

// PutFull stores payload as a full chunk.
func (s *Store) PutFull(payload []byte) (PutResult, error) {
	enc, id := EncodeFull(payload)
	wrote, err := s.write(id, enc)
	if err != nil {
		return PutResult{}, err
	}
	return PutResult{Ref: Ref{ID: id}, Wrote: wrote, Bytes: len(enc)}, nil
}

// Put stores payload, as a delta against parent when that is both legal
// (the chain bound keeps room) and smaller than a full chunk; otherwise as a
// full chunk. A zero parent ID always stores full.
func (s *Store) Put(payload []byte, parent Ref) (PutResult, error) {
	if parent.ID == 0 {
		return s.PutFull(payload)
	}
	if parent.Chain+1 > s.maxChain {
		// Compaction: the chain is at its bound, fold back to a full chunk.
		res, err := s.PutFull(payload)
		if err != nil {
			return PutResult{}, err
		}
		res.Folded = true
		return res, nil
	}
	parentPayload, _, err := s.Resolve(parent.ID)
	if err != nil {
		return PutResult{}, fmt.Errorf("ckptstore: resolving delta parent: %w", err)
	}
	ops := MakeDelta(parentPayload, payload)
	encDelta, deltaID := EncodeDelta(parent.ID, ops)
	encFull, fullID := EncodeFull(payload)
	if len(encDelta) >= len(encFull) {
		wrote, err := s.write(fullID, encFull)
		if err != nil {
			return PutResult{}, err
		}
		return PutResult{Ref: Ref{ID: fullID}, Wrote: wrote, Bytes: len(encFull)}, nil
	}
	wrote, err := s.write(deltaID, encDelta)
	if err != nil {
		return PutResult{}, err
	}
	return PutResult{Ref: Ref{ID: deltaID, Chain: parent.Chain + 1}, Wrote: wrote, Delta: true, Bytes: len(encDelta)}, nil
}

// Resolve reconstructs the payload committed under id, following delta
// parents, and reports the chain length walked.
func (s *Store) Resolve(id uint64) ([]byte, int, error) {
	return resolveFrom(s.get, id)
}

// resolveFrom walks a chunk's delta chain through an arbitrary fetcher,
// applying deltas child-last. Shared by the disk store and the in-memory
// pool.
func resolveFrom(get func(uint64) ([]byte, error), id uint64) ([]byte, int, error) {
	// Collect the chain root-last, bounded against parent cycles.
	var chain []*Chunk
	for depth := 0; ; depth++ {
		if depth > maxResolveDepth {
			return nil, 0, fmt.Errorf("ckptstore: chunk %016x has a delta chain deeper than %d (cycle?)", id, maxResolveDepth)
		}
		data, err := get(id)
		if err != nil {
			return nil, 0, err
		}
		c, err := DecodeChunk(data)
		if err != nil {
			return nil, 0, fmt.Errorf("ckptstore: chunk %016x: %w", id, err)
		}
		chain = append(chain, c)
		if c.Kind == KindFull {
			break
		}
		id = c.Parent
	}
	payload := chain[len(chain)-1].Body
	for i := len(chain) - 2; i >= 0; i-- {
		var err error
		payload, err = ApplyDelta(payload, chain[i].Body)
		if err != nil {
			return nil, 0, err
		}
	}
	// The root's body aliases the read buffer; copy so callers own the bytes.
	out := make([]byte, len(payload))
	copy(out, payload)
	return out, len(chain) - 1, nil
}

// Closure expands roots to the full set of chunk IDs a restore from them may
// read: every root plus every delta parent, transitively.
func (s *Store) Closure(roots []uint64) (map[uint64]bool, error) {
	return closureFrom(s.get, roots)
}

func closureFrom(get func(uint64) ([]byte, error), roots []uint64) (map[uint64]bool, error) {
	live := make(map[uint64]bool, len(roots))
	var walk func(id uint64, depth int) error
	walk = func(id uint64, depth int) error {
		if id == 0 || live[id] {
			return nil
		}
		if depth > maxResolveDepth {
			return fmt.Errorf("ckptstore: chunk %016x parent chain deeper than %d (cycle?)", id, maxResolveDepth)
		}
		data, err := get(id)
		if err != nil {
			return err
		}
		c, err := DecodeChunk(data)
		if err != nil {
			return fmt.Errorf("ckptstore: chunk %016x: %w", id, err)
		}
		live[id] = true
		if c.Kind == KindDelta {
			return walk(c.Parent, depth+1)
		}
		return nil
	}
	for _, id := range roots {
		if err := walk(id, 0); err != nil {
			return nil, err
		}
	}
	return live, nil
}

// MemStore is an in-memory chunk pool with the disk store's addressing,
// chain and put rules and no durability: the reference store of the
// checkpoint benchmarks and of the disk store's differential fuzz. Not safe
// for concurrent use.
type MemStore struct {
	chunks   map[uint64][]byte
	maxChain int
}

// NewMemStore returns an empty in-memory chunk pool. maxChain bounds delta
// chains; 0 selects DefaultMaxChain.
func NewMemStore(maxChain int) *MemStore {
	if maxChain <= 0 {
		maxChain = DefaultMaxChain
	}
	return &MemStore{chunks: map[uint64][]byte{}, maxChain: maxChain}
}

// Put stores payload in the pool, as a delta against parent when legal and
// smaller (same policy as Store.Put).
func (m *MemStore) Put(payload []byte, parent Ref) (PutResult, error) {
	if parent.ID != 0 && parent.Chain+1 <= m.maxChain {
		parentPayload, _, err := m.Resolve(parent.ID)
		if err != nil {
			return PutResult{}, fmt.Errorf("ckptstore: resolving delta parent: %w", err)
		}
		ops := MakeDelta(parentPayload, payload)
		encDelta, deltaID := EncodeDelta(parent.ID, ops)
		encFull, fullID := EncodeFull(payload)
		if len(encDelta) < len(encFull) {
			wrote := m.add(deltaID, encDelta)
			return PutResult{Ref: Ref{ID: deltaID, Chain: parent.Chain + 1}, Wrote: wrote, Delta: true, Bytes: len(encDelta)}, nil
		}
		wrote := m.add(fullID, encFull)
		return PutResult{Ref: Ref{ID: fullID}, Wrote: wrote, Bytes: len(encFull)}, nil
	}
	enc, id := EncodeFull(payload)
	wrote := m.add(id, enc)
	res := PutResult{Ref: Ref{ID: id}, Wrote: wrote, Bytes: len(enc)}
	if parent.ID != 0 && parent.Chain+1 > m.maxChain {
		res.Folded = true
	}
	return res, nil
}

func (m *MemStore) add(id uint64, enc []byte) bool {
	if _, ok := m.chunks[id]; ok {
		return false
	}
	m.chunks[id] = enc
	return true
}

func (m *MemStore) get(id uint64) ([]byte, error) {
	data, ok := m.chunks[id]
	if !ok {
		return nil, fmt.Errorf("ckptstore: chunk %016x not in pool", id)
	}
	return data, nil
}

// Resolve reconstructs the payload pooled under id.
func (m *MemStore) Resolve(id uint64) ([]byte, int, error) {
	return resolveFrom(m.get, id)
}
