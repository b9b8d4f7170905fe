// Package hsm is the CASTOR-style hierarchical-storage-management service
// surface over the migrating file system (internal/core). Where the migrator
// decides *what* should move between disk and tertiary storage, hsm exposes
// the operable archive service above it: explicit
// StageIn/StageOut/Pin/Unpin/Evict requests, run one at a time and kept in
// a persistent request ledger, file pinning honored end-to-end by the
// evictor/cleaner/migrator, and per-principal accounting with quota
// enforcement at admission.
//
// Every request transition (admitted → done/failed), pin change and quota
// shed is recorded in the shared decision audit and exported through hsm.*
// instruments, so `hldump -requests/-pins/-quotas` sees the whole service
// state.
package hsm

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/lfs"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// Op is one HSM request kind.
type Op int

const (
	// OpStageIn fetches a file's tertiary-resident segments into the
	// segment cache ahead of use.
	OpStageIn Op = iota
	// OpStageOut migrates a file's disk-resident blocks to tertiary
	// storage (an explicit archive request).
	OpStageOut
	// OpPin stages a file in and pins it: its segments are never evicted,
	// cleaned, or migrated until unpinned.
	OpPin
	// OpUnpin releases a pin.
	OpUnpin
	// OpEvict drops a file's cached tertiary segments from the cache.
	OpEvict
)

func (o Op) String() string {
	switch o {
	case OpStageIn:
		return "stage-in"
	case OpStageOut:
		return "stage-out"
	case OpPin:
		return "pin"
	case OpUnpin:
		return "unpin"
	case OpEvict:
		return "evict"
	}
	return "unknown"
}

// State is a request's lifecycle state. The values are persisted in the
// state file, where 0 is never written.
type State int

const (
	// running requests are executing.
	running State = iota + 1
	// Done requests completed successfully.
	Done
	// Failed requests reached a terminal error.
	Failed
)

func (s State) String() string {
	switch s {
	case running:
		return "active"
	case Done:
		return "done"
	case Failed:
		return "failed"
	}
	return "unknown"
}

// Request is one HSM request: an entry of the service's ledger.
type Request struct {
	ID        int64
	Op        Op
	Path      string
	Principal string
	State     State

	Submitted sim.Time
	Started   sim.Time
	Finished  sim.Time

	// Bytes is the data the operation moved (staged in, migrated out, or
	// evicted), filled when the request completes.
	Bytes int64
	// Err holds the terminal error text of a failed request.
	Err string
}

// ErrQuotaExceeded marks a request shed at admission because the principal
// would exceed a hard quota limit. Like svc.ErrOverload it is typed so
// clients distinguish "the service refused me by policy" from failures.
var ErrQuotaExceeded = errors.New("hsm: quota exceeded")

// ErrAlreadyPinned marks a Pin of a path that is already pinned.
var ErrAlreadyPinned = errors.New("hsm: already pinned")

// ErrNotPinned marks an Unpin of a path with no pin.
var ErrNotPinned = errors.New("hsm: not pinned")

// ErrPinned marks a StageOut or Evict refused because the file is pinned.
var ErrPinned = errors.New("hsm: file is pinned")

// ErrCorruptState marks a state file Attach cannot take: it does not decode,
// or a pin or staged record names a tertiary segment the file system does
// not have.
var ErrCorruptState = errors.New("hsm: corrupt state file")

// Pin is one active pin: a file whose segments stay staged.
type Pin struct {
	Path      string
	Inum      uint32
	Principal string
	Bytes     int64
	Segs      []int // pinned tertiary segment indices, ascending
	PinnedAt  sim.Time
}

// stagedEntry is one staged-data attribution: who asked for this path's
// tertiary data to be cached, and how much.
type stagedEntry struct {
	Path      string
	Principal string
	Bytes     int64
	Segs      []int
	StagedAt  sim.Time
}

// Service is the HSM service surface over one HighLight instance. Create
// it with Attach; all methods must be called from procs of the instance's
// kernel.
type Service struct {
	HL *core.HighLight

	// exec runs requests one at a time, in submission order. SetQuota holds
	// it too, so the state file is only ever written between requests and
	// holds finished ones alone.
	exec     *sim.Resource
	nextID   int64
	requests []*Request // every request that took exec, ID order
	pins     map[string]*Pin
	staged   map[string]*stagedEntry
	quotas   map[string]Quota

	submitted *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	quotaShed *obs.Counter
	pinsG     *obs.Gauge
	pinnedBG  *obs.Gauge
	stagedBG  *obs.Gauge
}

// Attach builds the service surface over hl, loading persisted state (the
// request ledger, pins, staged attributions, and quotas) from the state
// file if one exists and re-deriving the core pin registries from it. Any
// persisted pin flag not covered by the re-derived pin set (a crash between
// flag checkpoint and state write) is cleared as stale.
func Attach(p *sim.Proc, hl *core.HighLight) (*Service, error) {
	s := &Service{
		HL:     hl,
		exec:   hl.K.NewResource("hsm.exec"),
		pins:   make(map[string]*Pin),
		staged: make(map[string]*stagedEntry),
		quotas: make(map[string]Quota),
	}
	o := hl.Obs
	s.submitted = o.Counter("hsm.submitted")
	s.completed = o.Counter("hsm.completed")
	s.failed = o.Counter("hsm.failed")
	s.quotaShed = o.Counter("hsm.quota_shed")
	s.pinsG = o.Gauge("hsm.pins")
	s.pinnedBG = o.Gauge("hsm.pinned_bytes")
	s.stagedBG = o.Gauge("hsm.staged_bytes")

	if err := s.load(p); err != nil {
		return nil, err
	}
	// Re-derive the core pin registries from the persisted pin set, then
	// clear any stale persisted flags it does not cover.
	covered := make(map[int]bool)
	for _, path := range sortedKeys(s.pins) {
		pin := s.pins[path]
		hl.PinInode(pin.Inum)
		for _, seg := range pin.Segs {
			hl.PinSegment(seg)
			covered[seg] = true
		}
	}
	for idx := 0; idx < hl.FS.TsegCount(); idx++ {
		if hl.FS.TsegPinned(idx) && !covered[idx] {
			hl.UnpinSegment(idx)
		}
	}
	s.updateGauges()
	return s, nil
}

// Submit runs one request and returns it with its terminal error (nil when
// done). Requests run one at a time in submission order: Submit waits for
// the requests before it, then checks a StageIn or Pin against the
// principal's quota — a projected overrun is shed with ErrQuotaExceeded
// (audited) and never enters the ledger — executes the request, persists
// the state and checkpoints the file system, so a completed pin is durable
// when Submit returns.
func (s *Service) Submit(p *sim.Proc, op Op, path, principal string) (*Request, error) {
	now := p.Now()
	s.exec.Acquire(p)
	defer s.exec.Release(p)
	if op == OpStageIn || op == OpPin {
		if err := s.admitQuota(p, op, path, principal); err != nil {
			return nil, err
		}
	}
	s.nextID++
	r := &Request{
		ID: s.nextID, Op: op, Path: path, Principal: principal,
		State: running, Submitted: now, Started: p.Now(),
	}
	s.requests = append(s.requests, r)
	s.submitted.Add(1)
	s.HL.Audit.Record(attr.Decision{
		T: r.Started, Actor: "hsm", Subject: fmt.Sprintf("hsmreq:%d", r.ID),
		Seg: -1, Verdict: attr.VerdictQueued, Reason: op.String() + " " + path,
		Inputs: []attr.Input{attr.In("op", float64(op))},
	})
	err := s.execute(p, r)
	r.Finished = p.Now()
	if err != nil {
		r.State = Failed
		r.Err = err.Error()
		s.failed.Add(1)
		s.HL.Audit.Record(attr.Decision{
			T: p.Now(), Actor: "hsm", Subject: fmt.Sprintf("hsmreq:%d", r.ID),
			Seg: -1, Verdict: attr.VerdictFailed, Reason: err.Error(),
			Inputs: []attr.Input{attr.In("op", float64(r.Op))},
		})
	} else {
		r.State = Done
		s.completed.Add(1)
		s.HL.Audit.Record(attr.Decision{
			T: p.Now(), Actor: "hsm", Subject: fmt.Sprintf("hsmreq:%d", r.ID),
			Seg: -1, Verdict: attr.VerdictDone, Reason: r.Op.String() + " " + r.Path,
			Inputs: []attr.Input{attr.In("op", float64(r.Op)), attr.In("bytes", float64(r.Bytes))},
		})
	}
	s.updateGauges()
	if serr := s.save(p); serr != nil {
		return r, serr
	}
	if cerr := s.HL.Checkpoint(p); cerr != nil {
		return r, cerr
	}
	return r, err
}

// admitQuota projects the principal's usage after the request and sheds it
// if a hard limit would be crossed. The projection uses the file's current
// size (the worst case: every byte tertiary-resident) in place of what the
// principal has staged of that path already, since executing the request
// replaces that entry; actual accounting at execution time uses the bytes
// really moved.
func (s *Service) admitQuota(p *sim.Proc, op Op, path, principal string) error {
	q := s.quotas[principal]
	var est int64
	if fi, err := s.HL.FS.Stat(p, path); err == nil {
		est = int64(fi.Size)
	}
	staged, pinned := s.UsageOf(principal)
	if st, ok := s.staged[path]; ok && st.Principal == principal {
		staged -= st.Bytes
	}
	now := p.Now()
	shed := func(kind string, used, limit int64) error {
		s.quotaShed.Add(1)
		s.HL.Audit.Record(attr.Decision{
			T: now, Actor: "hsm", Subject: "principal:" + principal,
			Seg: -1, Verdict: attr.VerdictQuotaShed, Reason: op.String() + " " + path + " over " + kind + " limit",
			Inputs: []attr.Input{
				attr.In("used", float64(used)),
				attr.In("request", float64(est)),
				attr.In("limit", float64(limit)),
			},
		})
		return fmt.Errorf("%w: %s of %q puts principal %s over %s limit (%d+%d > %d)",
			ErrQuotaExceeded, op, path, principal, kind, used, est, limit)
	}
	if q.StagedHard > 0 && staged+est > q.StagedHard {
		return shed("staged-bytes", staged, q.StagedHard)
	}
	if op == OpPin && q.PinnedHard > 0 && pinned+est > q.PinnedHard {
		return shed("pinned-bytes", pinned, q.PinnedHard)
	}
	return nil
}

// execute runs one active request.
func (s *Service) execute(p *sim.Proc, r *Request) error {
	switch r.Op {
	case OpStageIn:
		return s.execStageIn(p, r)
	case OpStageOut:
		return s.execStageOut(p, r)
	case OpPin:
		return s.execPin(p, r)
	case OpUnpin:
		return s.execUnpin(p, r)
	case OpEvict:
		return s.execEvict(p, r)
	}
	return fmt.Errorf("hsm: request %d: unknown op %d", r.ID, int(r.Op))
}

// fileTertiary resolves path and returns its inode, the tertiary segments
// its blocks (and inode) currently occupy in ascending order, and the
// tertiary-resident byte count.
func (s *Service) fileTertiary(p *sim.Proc, path string) (uint32, []int, int64, error) {
	f, err := s.HL.FS.Open(p, path)
	if err != nil {
		return 0, nil, 0, err
	}
	inum := f.Inum()
	refs, err := s.HL.FS.FileBlockRefs(p, inum)
	if err != nil {
		return inum, nil, 0, err
	}
	segset := make(map[int]bool)
	var bytes int64
	for _, ref := range refs {
		seg := s.HL.Amap.SegOf(ref.Addr)
		if !s.HL.Amap.IsTertiarySeg(seg) {
			continue
		}
		if idx, ok := s.HL.Amap.TertIndex(seg); ok {
			segset[idx] = true
			bytes += lfs.BlockSize
		}
	}
	if ie := s.HL.FS.Imap(inum); s.HL.Amap.IsTertiarySeg(s.HL.Amap.SegOf(ie.Addr)) {
		if idx, ok := s.HL.Amap.TertIndex(s.HL.Amap.SegOf(ie.Addr)); ok {
			segset[idx] = true
		}
	}
	segs := make([]int, 0, len(segset))
	for idx := range segset {
		segs = append(segs, idx)
	}
	sort.Ints(segs)
	return inum, segs, bytes, nil
}

// stageSegments demand-fetches every listed tertiary segment not already
// cached.
func (s *Service) stageSegments(p *sim.Proc, segs []int) error {
	for _, tag := range segs {
		if _, ok := s.HL.Cache.Peek(tag); ok {
			continue
		}
		if _, err := s.HL.Svc.DemandFetch(p, tag); err != nil {
			return fmt.Errorf("hsm: staging segment %d: %w", tag, err)
		}
	}
	return nil
}

func (s *Service) execStageIn(p *sim.Proc, r *Request) error {
	_, segs, bytes, err := s.fileTertiary(p, r.Path)
	if err != nil {
		return err
	}
	if err := s.stageSegments(p, segs); err != nil {
		return err
	}
	r.Bytes = bytes
	if bytes > 0 {
		s.staged[r.Path] = &stagedEntry{
			Path: r.Path, Principal: r.Principal, Bytes: bytes, Segs: segs, StagedAt: p.Now(),
		}
	}
	return nil
}

func (s *Service) execStageOut(p *sim.Proc, r *Request) error {
	f, err := s.HL.FS.Open(p, r.Path)
	if err != nil {
		return err
	}
	if s.HL.InodePinned(f.Inum()) {
		return fmt.Errorf("%w: %s (unpin before stage-out)", ErrPinned, r.Path)
	}
	bytes, err := s.HL.MigrateFiles(p, []uint32{f.Inum()}, false)
	if err != nil {
		return err
	}
	if err := s.HL.CompleteMigration(p); err != nil {
		return err
	}
	r.Bytes = bytes
	return nil
}

func (s *Service) execPin(p *sim.Proc, r *Request) error {
	if _, dup := s.pins[r.Path]; dup {
		return fmt.Errorf("%w: %s", ErrAlreadyPinned, r.Path)
	}
	inum, segs, bytes, err := s.fileTertiary(p, r.Path)
	if err != nil {
		return err
	}
	if err := s.stageSegments(p, segs); err != nil {
		return err
	}
	s.HL.PinInode(inum)
	for _, seg := range segs {
		s.HL.PinSegment(seg)
	}
	pin := &Pin{
		Path: r.Path, Inum: inum, Principal: r.Principal,
		Bytes: bytes, Segs: segs, PinnedAt: p.Now(),
	}
	s.pins[r.Path] = pin
	if bytes > 0 {
		s.staged[r.Path] = &stagedEntry{
			Path: r.Path, Principal: r.Principal, Bytes: bytes, Segs: segs, StagedAt: p.Now(),
		}
	}
	r.Bytes = bytes
	seg := -1
	if len(segs) > 0 {
		seg = segs[0]
	}
	s.HL.Audit.Record(attr.Decision{
		T: p.Now(), Actor: "hsm", Subject: "pin:" + r.Path,
		Seg: seg, Verdict: attr.VerdictPinned, Reason: "principal " + r.Principal,
		Inputs: []attr.Input{attr.In("bytes", float64(bytes)), attr.In("segs", float64(len(segs)))},
	})
	return nil
}

func (s *Service) execUnpin(p *sim.Proc, r *Request) error {
	pin, ok := s.pins[r.Path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotPinned, r.Path)
	}
	s.HL.UnpinInode(pin.Inum)
	for _, seg := range pin.Segs {
		s.HL.UnpinSegment(seg)
	}
	delete(s.pins, r.Path)
	r.Bytes = pin.Bytes
	seg := -1
	if len(pin.Segs) > 0 {
		seg = pin.Segs[0]
	}
	s.HL.Audit.Record(attr.Decision{
		T: p.Now(), Actor: "hsm", Subject: "pin:" + r.Path,
		Seg: seg, Verdict: attr.VerdictUnpinned, Reason: "principal " + r.Principal,
		Inputs: []attr.Input{attr.In("bytes", float64(pin.Bytes))},
	})
	return nil
}

func (s *Service) execEvict(p *sim.Proc, r *Request) error {
	inum, segs, _, err := s.fileTertiary(p, r.Path)
	if err != nil {
		return err
	}
	if s.HL.InodePinned(inum) {
		return fmt.Errorf("%w: %s (unpin before evict)", ErrPinned, r.Path)
	}
	var evicted int64
	for _, tag := range segs {
		l, ok := s.HL.Cache.Peek(tag)
		if !ok {
			continue
		}
		if !s.HL.Cache.Evictable(l) {
			continue // busy or pinned through another file: leave it
		}
		if err := s.HL.Svc.Eject(tag); err != nil {
			return err
		}
		evicted += int64(s.HL.Amap.SegBlocks()) * lfs.BlockSize
	}
	delete(s.staged, r.Path)
	r.Bytes = evicted
	return nil
}

// Requests returns copies of every request in ID order.
func (s *Service) Requests() []Request {
	out := make([]Request, 0, len(s.requests))
	for _, r := range s.requests {
		out = append(out, *r)
	}
	return out
}

// Pins returns copies of the active pins in path order.
func (s *Service) Pins() []Pin {
	out := make([]Pin, 0, len(s.pins))
	for _, path := range sortedKeys(s.pins) {
		out = append(out, *s.pins[path])
	}
	return out
}

// updateGauges refreshes the pin/staged gauges from current state.
func (s *Service) updateGauges() {
	var pinnedB, stagedB int64
	for _, pin := range s.pins {
		pinnedB += pin.Bytes
	}
	for _, st := range s.staged {
		stagedB += st.Bytes
	}
	s.pinsG.Set(int64(len(s.pins)))
	s.pinnedBG.Set(pinnedB)
	s.stagedBG.Set(stagedB)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
