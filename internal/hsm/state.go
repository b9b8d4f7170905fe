package hsm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/lfs"
	"repro/internal/sim"
)

// statePath is where the service persists its state inside the HighLight
// file system. The file is ordinary file data, so it rides the log's
// durability path: synced on every save and recovered by the normal
// roll-forward after a crash (the ledger, pins and quotas survive it).
const (
	stateDir  = "/.hsm"
	statePath = stateDir + "/state"
)

// The persisted representation. Slices are sorted before encoding so two
// identical service states always serialize byte-identically (the
// double-run determinism contract covers this file too).
type stateFile struct {
	NextID   int64        `json:"next_id"`
	Requests []requestRec `json:"requests"`
	Pins     []pinRec     `json:"pins"`
	Staged   []stagedRec  `json:"staged"`
	Quotas   []quotaRec   `json:"quotas"`
}

type requestRec struct {
	ID        int64  `json:"id"`
	Op        int    `json:"op"`
	Path      string `json:"path"`
	Principal string `json:"principal"`
	State     int    `json:"state"`
	Submitted int64  `json:"submitted_ns"`
	Started   int64  `json:"started_ns"`
	Finished  int64  `json:"finished_ns"`
	Bytes     int64  `json:"bytes"`
	Err       string `json:"err,omitempty"`
}

type pinRec struct {
	Path      string `json:"path"`
	Inum      uint32 `json:"inum"`
	Principal string `json:"principal"`
	Bytes     int64  `json:"bytes"`
	Segs      []int  `json:"segs"`
	PinnedAt  int64  `json:"pinned_ns"`
}

type stagedRec struct {
	Path      string `json:"path"`
	Principal string `json:"principal"`
	Bytes     int64  `json:"bytes"`
	Segs      []int  `json:"segs"`
	StagedAt  int64  `json:"staged_ns"`
}

// quotaRec is one principal's Quota. A state file written before the soft
// limit was dropped still carries "staged_soft", which loading ignores.
type quotaRec struct {
	Principal  string `json:"principal"`
	StagedHard int64  `json:"staged_hard"`
	PinnedHard int64  `json:"pinned_hard"`
}

// save serializes the service state into the state file and syncs it. It
// runs between requests (under exec, or in Attach before anyone can
// submit), so every request it saves is finished.
func (s *Service) save(p *sim.Proc) error {
	st := stateFile{NextID: s.nextID}
	for _, r := range s.requests {
		st.Requests = append(st.Requests, requestRec{
			ID: r.ID, Op: int(r.Op), Path: r.Path, Principal: r.Principal,
			State:     int(r.State),
			Submitted: int64(r.Submitted), Started: int64(r.Started), Finished: int64(r.Finished),
			Bytes: r.Bytes, Err: r.Err,
		})
	}
	for _, path := range sortedKeys(s.pins) {
		pin := s.pins[path]
		st.Pins = append(st.Pins, pinRec{
			Path: pin.Path, Inum: pin.Inum, Principal: pin.Principal,
			Bytes: pin.Bytes, Segs: pin.Segs, PinnedAt: int64(pin.PinnedAt),
		})
	}
	for _, path := range sortedKeys(s.staged) {
		rec := s.staged[path]
		st.Staged = append(st.Staged, stagedRec{
			Path: rec.Path, Principal: rec.Principal,
			Bytes: rec.Bytes, Segs: rec.Segs, StagedAt: int64(rec.StagedAt),
		})
	}
	for _, pr := range sortedKeys(s.quotas) {
		q := s.quotas[pr]
		st.Quotas = append(st.Quotas, quotaRec{
			Principal: pr, StagedHard: q.StagedHard, PinnedHard: q.PinnedHard,
		})
	}
	data, err := json.Marshal(&st)
	if err != nil {
		return fmt.Errorf("hsm: encoding state: %w", err)
	}
	f, err := s.HL.FS.Open(p, statePath)
	if err != nil {
		if f, err = s.HL.FS.Create(p, statePath); err != nil {
			return fmt.Errorf("hsm: creating state file: %w", err)
		}
	}
	if err := f.Truncate(p, 0); err != nil {
		return err
	}
	if _, err := f.WriteAt(p, data, 0); err != nil {
		return err
	}
	return s.HL.FS.Sync(p)
}

// load reads the state file (creating the /.hsm directory and an empty
// state on first attach) and rebuilds the in-memory maps.
func (s *Service) load(p *sim.Proc) error {
	f, err := s.HL.FS.Open(p, statePath)
	if err != nil {
		if !errors.Is(err, lfs.ErrNotFound) {
			return fmt.Errorf("hsm: opening state file: %w", err)
		}
		if derr := s.HL.FS.Mkdir(p, stateDir); derr != nil && !errors.Is(derr, lfs.ErrExists) {
			return fmt.Errorf("hsm: creating state dir: %w", derr)
		}
		return s.save(p)
	}
	size, err := f.Size(p)
	if err != nil {
		return err
	}
	data := make([]byte, size)
	// An empty file reads as io.EOF and then fails to decode.
	if _, err := f.ReadAt(p, data, 0); err != nil && err != io.EOF {
		return err
	}
	var st stateFile
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("%w %s: %v", ErrCorruptState, statePath, err)
	}
	tsegs := s.HL.FS.TsegCount()
	outside := func(seg int) bool { return seg < 0 || seg >= tsegs }
	for _, rec := range st.Pins {
		if slices.ContainsFunc(rec.Segs, outside) {
			return fmt.Errorf("%w %s: pin of %s names a segment outside [0, %d)", ErrCorruptState, statePath, rec.Path, tsegs)
		}
	}
	for _, rec := range st.Staged {
		if slices.ContainsFunc(rec.Segs, outside) {
			return fmt.Errorf("%w %s: staged %s names a segment outside [0, %d)", ErrCorruptState, statePath, rec.Path, tsegs)
		}
	}
	s.nextID = st.NextID
	for _, rec := range st.Requests {
		s.requests = append(s.requests, &Request{
			ID: rec.ID, Op: Op(rec.Op), Path: rec.Path, Principal: rec.Principal,
			State:     State(rec.State),
			Submitted: sim.Time(rec.Submitted), Started: sim.Time(rec.Started), Finished: sim.Time(rec.Finished),
			Bytes: rec.Bytes, Err: rec.Err,
		})
	}
	for _, rec := range st.Pins {
		s.pins[rec.Path] = &Pin{
			Path: rec.Path, Inum: rec.Inum, Principal: rec.Principal,
			Bytes: rec.Bytes, Segs: rec.Segs, PinnedAt: sim.Time(rec.PinnedAt),
		}
	}
	for _, rec := range st.Staged {
		s.staged[rec.Path] = &stagedEntry{
			Path: rec.Path, Principal: rec.Principal,
			Bytes: rec.Bytes, Segs: rec.Segs, StagedAt: sim.Time(rec.StagedAt),
		}
	}
	for _, rec := range st.Quotas {
		s.quotas[rec.Principal] = Quota{StagedHard: rec.StagedHard, PinnedHard: rec.PinnedHard}
	}
	return nil
}
