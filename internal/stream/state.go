package stream

import (
	"errors"
	"fmt"

	"rrsched/internal/bincodec"
	"rrsched/internal/core"
	"rrsched/internal/model"
)

// The binary state image is the machine-exchanged form of a scheduler: the
// same checkpoint struct Snapshot renders as JSON, written field by field in
// declaration order as varints (zigzag for signed values). Layout:
//
//	"rS"     magic
//	version  one byte, the checkpoint version (1)
//	fields   every checkpoint field in struct order; lists are a length then
//	         their elements, the tracker a presence byte then its fields
//
// The encoding is canonical: RestoreState accepts only the bytes AppendState
// would write for the scheduler it rebuilds (minimal varints, lists in the
// sorted order the encoder emits, no empty queues), so a restored image
// re-encodes byte-identically and equal schedulers share one image.
const (
	stateMagic0 = 'r'
	stateMagic1 = 'S'
)

// AppendState appends the scheduler's binary state image to dst and returns
// the extended slice. This is the encoding machines exchange (checkpoints,
// chunk payloads, migration frames); it carries exactly what Snapshot does.
func (s *Scheduler) AppendState(dst []byte) ([]byte, error) {
	cp, err := s.checkpoint()
	if err != nil {
		return dst, err
	}
	return appendCheckpoint(dst, cp), nil
}

// RestoreState rebuilds a scheduler from an AppendState image. It validates
// exactly as Restore does — both end in the same validation — and further
// refuses any image that is not the canonical encoding of its state.
func RestoreState(data []byte) (*Scheduler, error) {
	cp, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("stream: decoding checkpoint: %w", err)
	}
	s, err := restoreCheckpoint(cp)
	if err != nil {
		return nil, err
	}
	if err := cp.canonical(); err != nil {
		return nil, fmt.Errorf("stream: decoding checkpoint: %w", err)
	}
	return s, nil
}

// appendCheckpoint encodes cp. The version byte is cp.Version itself, so an
// image of another version is refused by the shared validation.
func appendCheckpoint(b []byte, cp *checkpoint) []byte {
	b = append(b, stateMagic0, stateMagic1, byte(cp.Version))
	b = bincodec.AppendInt(b, cp.Delta)
	b = bincodec.AppendInt(b, int64(cp.Resources))
	b = bincodec.AppendInt(b, cp.Round)
	b = bincodec.AppendInt(b, cp.Cost.Reconfig)
	b = bincodec.AppendInt(b, cp.Cost.Drop)
	b = bincodec.AppendInt(b, int64(cp.Executed))
	b = bincodec.AppendInt(b, int64(cp.Dropped))
	b = bincodec.AppendInt(b, int64(cp.PushedJobs))
	b = bincodec.AppendInt(b, cp.MaxScheduled)

	b = bincodec.AppendUint(b, uint64(len(cp.Delays)))
	for _, d := range cp.Delays {
		b = bincodec.AppendInt(b, int64(d.Color))
		b = bincodec.AppendInt(b, d.Delay)
	}
	b = bincodec.AppendUint(b, uint64(len(cp.Pending)))
	for _, p := range cp.Pending {
		b = bincodec.AppendInt(b, int64(p.Color))
		b = appendJobs(b, p.Jobs)
	}
	b = bincodec.AppendUint(b, uint64(len(cp.Releases)))
	for _, r := range cp.Releases {
		b = bincodec.AppendInt(b, r.Round)
		b = appendJobs(b, r.Jobs)
	}
	b = appendColors(b, cp.LocColor)

	in := &cp.Inner
	b = bincodec.AppendInt(b, in.Now)
	b = appendColors(b, in.ToOuter)
	b = bincodec.AppendUint(b, uint64(len(in.Subcolors)))
	for _, sc := range in.Subcolors {
		b = bincodec.AppendInt(b, int64(sc.Outer))
		b = bincodec.AppendInt(b, sc.Bucket)
		b = bincodec.AppendInt(b, int64(sc.Inner))
	}
	b = bincodec.AppendUint(b, uint64(len(in.Pending)))
	for _, p := range in.Pending {
		b = bincodec.AppendInt(b, int64(p.Color))
		b = bincodec.AppendUint(b, uint64(len(p.Deadlines)))
		for _, d := range p.Deadlines {
			b = bincodec.AppendInt(b, d)
		}
	}
	b = appendColors(b, in.LocColor)
	b = bincodec.AppendUint(b, uint64(len(in.ColorLocs)))
	for _, cl := range in.ColorLocs {
		b = bincodec.AppendInt(b, int64(cl.Color))
		b = appendInts(b, cl.Locs)
	}
	b = appendInts(b, in.FreeLocs)

	b = bincodec.AppendBool(b, in.Tracker != nil)
	if t := in.Tracker; t != nil {
		b = bincodec.AppendInt(b, t.Delta)
		b = bincodec.AppendInt(b, int64(t.TimestampK))
		b = bincodec.AppendInt(b, t.CompletedEpochs)
		b = bincodec.AppendInt(b, t.EligibleDrops)
		b = bincodec.AppendInt(b, t.IneligibleDrops)
		b = bincodec.AppendUint(b, uint64(len(t.Colors)))
		for _, c := range t.Colors {
			b = bincodec.AppendInt(b, int64(c.Color))
			b = bincodec.AppendInt(b, c.Delay)
			b = bincodec.AppendInt(b, c.Cnt)
			b = bincodec.AppendInt(b, c.Deadline)
			b = bincodec.AppendBool(b, c.Eligible)
			b = bincodec.AppendBool(b, c.Seen)
			b = bincodec.AppendUint(b, uint64(len(c.Wraps)))
			for _, w := range c.Wraps {
				b = bincodec.AppendInt(b, w)
			}
		}
	}
	return b
}

func appendJobs(b []byte, jobs []jobCP) []byte {
	b = bincodec.AppendUint(b, uint64(len(jobs)))
	for _, j := range jobs {
		b = bincodec.AppendInt(b, j.ID)
		b = bincodec.AppendInt(b, int64(j.Color))
		b = bincodec.AppendInt(b, j.Arrival)
		b = bincodec.AppendInt(b, j.Delay)
	}
	return b
}

func appendColors(b []byte, cs []model.Color) []byte {
	b = bincodec.AppendUint(b, uint64(len(cs)))
	for _, c := range cs {
		b = bincodec.AppendInt(b, int64(c))
	}
	return b
}

func appendInts(b []byte, vs []int) []byte {
	b = bincodec.AppendUint(b, uint64(len(vs)))
	for _, v := range vs {
		b = bincodec.AppendInt(b, int64(v))
	}
	return b
}

// decodeCheckpoint parses a binary image into its checkpoint struct. It checks
// only the encoding; what the fields say is restoreCheckpoint's to judge. An
// image of an unknown version decodes to its version alone, which the shared
// validation then refuses.
func decodeCheckpoint(data []byte) (*checkpoint, error) {
	if len(data) < 3 || data[0] != stateMagic0 || data[1] != stateMagic1 {
		return nil, fmt.Errorf("%w: not a binary state image", bincodec.ErrMalformed)
	}
	cp := &checkpoint{Version: int(data[2])}
	if cp.Version != checkpointVersion {
		return cp, nil
	}
	r := bincodec.NewReader(data[3:])
	cp.Delta = r.Int()
	cp.Resources = r.Intn()
	cp.Round = r.Int()
	cp.Cost.Reconfig = r.Int()
	cp.Cost.Drop = r.Int()
	cp.Executed = r.Intn()
	cp.Dropped = r.Intn()
	cp.PushedJobs = r.Intn()
	cp.MaxScheduled = r.Int()

	if n := r.Len(); n > 0 {
		cp.Delays = make([]colorDelayCP, n)
		for i := range cp.Delays {
			cp.Delays[i] = colorDelayCP{Color: model.Color(r.Int32()), Delay: r.Int()}
		}
	}
	if n := r.Len(); n > 0 {
		cp.Pending = make([]outerPendingCP, n)
		for i := range cp.Pending {
			cp.Pending[i] = outerPendingCP{Color: model.Color(r.Int32()), Jobs: readJobs(&r)}
		}
	}
	if n := r.Len(); n > 0 {
		cp.Releases = make([]releaseCP, n)
		for i := range cp.Releases {
			cp.Releases[i] = releaseCP{Round: r.Int(), Jobs: readJobs(&r)}
		}
	}
	cp.LocColor = readColors(&r)

	in := &cp.Inner
	in.Now = r.Int()
	in.ToOuter = readColors(&r)
	if n := r.Len(); n > 0 {
		in.Subcolors = make([]subcolorCP, n)
		for i := range in.Subcolors {
			in.Subcolors[i] = subcolorCP{Outer: model.Color(r.Int32()), Bucket: r.Int(), Inner: model.Color(r.Int32())}
		}
	}
	if n := r.Len(); n > 0 {
		in.Pending = make([]innerPendingCP, n)
		for i := range in.Pending {
			p := &in.Pending[i]
			p.Color = model.Color(r.Int32())
			p.Deadlines = make([]int64, r.Len())
			for k := range p.Deadlines {
				p.Deadlines[k] = r.Int()
			}
		}
	}
	in.LocColor = readColors(&r)
	if n := r.Len(); n > 0 {
		in.ColorLocs = make([]colorLocsCP, n)
		for i := range in.ColorLocs {
			in.ColorLocs[i] = colorLocsCP{Color: model.Color(r.Int32()), Locs: readInts(&r)}
		}
	}
	in.FreeLocs = readInts(&r)

	if r.Bool() {
		t := &core.TrackerCheckpoint{
			Delta:           r.Int(),
			TimestampK:      r.Intn(),
			CompletedEpochs: r.Int(),
			EligibleDrops:   r.Int(),
			IneligibleDrops: r.Int(),
		}
		if n := r.Len(); n > 0 {
			t.Colors = make([]core.ColorCheckpoint, n)
			for i := range t.Colors {
				c := &t.Colors[i]
				c.Color = model.Color(r.Int32())
				c.Delay = r.Int()
				c.Cnt = r.Int()
				c.Deadline = r.Int()
				c.Eligible = r.Bool()
				c.Seen = r.Bool()
				if n := r.Len(); n > 0 {
					c.Wraps = make([]int64, n)
					for k := range c.Wraps {
						c.Wraps[k] = r.Int()
					}
				}
			}
		}
		in.Tracker = t
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return cp, nil
}

func readJobs(r *bincodec.Reader) []jobCP {
	jobs := make([]jobCP, r.Len())
	for i := range jobs {
		jobs[i] = jobCP{ID: r.Int(), Color: model.Color(r.Int32()), Arrival: r.Int(), Delay: r.Int()}
	}
	return jobs
}

func readColors(r *bincodec.Reader) []model.Color {
	cs := make([]model.Color, r.Len())
	for i := range cs {
		cs[i] = model.Color(r.Int32())
	}
	return cs
}

func readInts(r *bincodec.Reader) []int {
	vs := make([]int, r.Len())
	for i := range vs {
		vs[i] = r.Intn()
	}
	return vs
}

// canonical reports whether cp is the image AppendState writes for the
// scheduler restoreCheckpoint built from it: keyed lists strictly ascending
// (so no key repeats) and no empty queue, since the encoder skips those.
// Checked after validation, so a corrupt image is refused with the same
// error on both paths.
func (cp *checkpoint) canonical() error {
	in := &cp.Inner
	if err := errors.Join(
		ascending("delays", cp.Delays, func(d *colorDelayCP) int64 { return int64(d.Color) }),
		ascending("pending colors", cp.Pending, func(p *outerPendingCP) int64 { return int64(p.Color) }),
		ascending("release rounds", cp.Releases, func(r *releaseCP) int64 { return r.Round }),
		ascending("subcolors", in.Subcolors, func(sc *subcolorCP) int64 { return int64(sc.Inner) }),
		ascending("inner pending colors", in.Pending, func(p *innerPendingCP) int64 { return int64(p.Color) }),
		ascending("cached colors", in.ColorLocs, func(cl *colorLocsCP) int64 { return int64(cl.Color) }),
		ascending("tracker colors", in.Tracker.Colors, func(c *core.ColorCheckpoint) int64 { return int64(c.Color) }),
	); err != nil {
		return err
	}
	for _, p := range cp.Pending {
		if len(p.Jobs) == 0 {
			return fmt.Errorf("%w: empty pending queue for color %v", bincodec.ErrMalformed, p.Color)
		}
	}
	for _, p := range in.Pending {
		if len(p.Deadlines) == 0 {
			return fmt.Errorf("%w: empty inner pending queue for color %v", bincodec.ErrMalformed, p.Color)
		}
	}
	return nil
}

// ascending refuses a list whose keys are not strictly ascending.
func ascending[T any](what string, xs []T, key func(*T) int64) error {
	for i := 1; i < len(xs); i++ {
		if key(&xs[i]) <= key(&xs[i-1]) {
			return fmt.Errorf("%w: %s not strictly ascending at entry %d", bincodec.ErrMalformed, what, i)
		}
	}
	return nil
}
