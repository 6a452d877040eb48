package main

import (
	"encoding/json"
	"os"
	"sort"
)

// span is one timed call the benchmark made. Spans of one round share the
// round ID; Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Round  int64  `json:"round"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// interval is a [start, end) pair in obs.Now nanoseconds.
type interval struct{ start, end int64 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing. It is used from one goroutine only: concurrent submit workers
// collect intervals and the round loop records them after joining.
type tracer struct {
	spans []span
}

func (t *tracer) add(parent int, name string, round int64, iv interval) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Round: round, Start: iv.start, End: iv.end})
	return id
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlaps once.
func covered(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv.start, cur), min(iv.end, hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// selfTimes returns each span name's total self time: a span's duration
// minus the part of it its children cover.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		self[s.Name] += s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// share splits one round's wall time: the part its submit spans cover, the
// part its tick covers, and the rest (the benchmark's own loop).
type share struct{ total, submit, tick, rest int64 }

// roundShares splits each root round span of spans. Overlapping submits on
// different connections count once.
func roundShares(spans []span) []share {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []share
	for _, s := range spans {
		if s.Name != "round" {
			continue
		}
		var subs, all []interval
		sh := share{total: s.End - s.Start}
		for _, k := range kids[s.ID] {
			iv := interval{k.Start, k.End}
			all = append(all, iv)
			if k.Name == "submit" {
				subs = append(subs, iv)
			} else {
				sh.tick += k.End - k.Start
			}
		}
		sh.submit = covered(subs, s.Start, s.End)
		sh.rest = sh.total - covered(all, s.Start, s.End)
		out = append(out, sh)
	}
	return out
}

// medianShare averages the shares of the rounds whose duration lies between
// the 40th and 60th percentiles: the split of a median round, whose parts sum
// to about the median round time.
func medianShare(shares []share) share {
	sort.Slice(shares, func(i, j int) bool { return shares[i].total < shares[j].total })
	lo, hi := len(shares)*2/5, max(len(shares)*3/5, len(shares)*2/5+1)
	var sum share
	for _, s := range shares[lo:hi] {
		sum.total += s.total
		sum.submit += s.submit
		sum.tick += s.tick
		sum.rest += s.rest
	}
	n := int64(hi - lo)
	return share{sum.total / n, sum.submit / n, sum.tick / n, sum.rest / n}
}

// writeTrace writes the spans and the machine record as one JSON document.
func writeTrace(path string, m machine, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Machine machine `json:"machine"`
		Spans   []span  `json:"spans"`
	}{m, spans}); err != nil {
		_ = f.Close() // the encode error is the one to report
		return err
	}
	return f.Close()
}
