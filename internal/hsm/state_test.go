package hsm_test

import (
	"errors"
	"testing"

	"repro/internal/hsm"
	"repro/internal/sim"
)

// attachTo writes state as /.hsm/state of a fresh instance and attaches the
// service to it. It reports whether any tertiary segment ended up pinned, and
// Attach's error.
func attachTo(t *testing.T, state []byte) (pinned bool, err error) {
	_, pinned, err = attachService(t, state)
	return pinned, err
}

// attachService is attachTo returning the service Attach made, if it did.
func attachService(t *testing.T, state []byte) (s *hsm.Service, pinned bool, err error) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, _, _, rerr := buildRig(p, k)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err := hl.FS.Mkdir(p, "/.hsm"); err != nil {
			t.Fatal(err)
		}
		f, ferr := hl.FS.Create(p, "/.hsm/state")
		if ferr != nil {
			t.Fatal(ferr)
		}
		if _, werr := f.WriteAt(p, state, 0); werr != nil {
			t.Fatal(werr)
		}
		s, err = hsm.Attach(p, hl)
		for idx := 0; idx < hl.FS.TsegCount(); idx++ {
			pinned = pinned || hl.FS.TsegPinned(idx)
		}
	})
	k.Stop()
	return s, pinned, err
}

// TestStateWithSoftLimitLoads: a state file written while a quota still had
// a soft limit ("staged_soft") attaches, with the limits it also names.
func TestStateWithSoftLimitLoads(t *testing.T) {
	s, _, err := attachService(t, []byte(`{"next_id":1,`+
		`"quotas":[{"principal":"alice","staged_soft":1,"staged_hard":2,"pinned_hard":3}]}`))
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if q := s.QuotaOf("alice"); q != (hsm.Quota{StagedHard: 2, PinnedHard: 3}) {
		t.Fatalf("alice's quota loads as %+v", q)
	}
}

// TestAttachRefusesCorruptState: a state file that does not decode, or whose
// pin or staged record names a tertiary segment outside the file system's,
// fails Attach with ErrCorruptState before any segment is pinned.
func TestAttachRefusesCorruptState(t *testing.T) {
	for name, state := range map[string]string{
		"pin past the end":    `{"pins":[{"path":"/f","inum":5,"segs":[999999]}]}`,
		"negative pin":        `{"pins":[{"path":"/f","inum":5,"segs":[0,-1]}]}`,
		"staged past the end": `{"staged":[{"path":"/f","principal":"alice","segs":[999999]}]}`,
		"not JSON":            "\x00garbage",
	} {
		t.Run(name, func(t *testing.T) {
			pinned, err := attachTo(t, []byte(state))
			if !errors.Is(err, hsm.ErrCorruptState) {
				t.Fatalf("Attach: %v, want ErrCorruptState", err)
			}
			if pinned {
				t.Fatal("a segment was pinned from a state file Attach refused")
			}
		})
	}
}

// FuzzHSMState: whatever /.hsm/state holds, Attach returns nil or
// ErrCorruptState; it never panics.
func FuzzHSMState(f *testing.F) {
	f.Add([]byte(`{"next_id":2,"requests":[{"id":1,"op":2,"path":"/f","principal":"alice","state":2}],` +
		`"pins":[{"path":"/f","inum":5,"principal":"alice","bytes":4096,"segs":[0,1]}],` +
		`"staged":[{"path":"/g","principal":"bob","bytes":4096,"segs":[2]}],` +
		`"quotas":[{"principal":"alice","staged_soft":1,"staged_hard":2,"pinned_hard":3}]}`))
	f.Add([]byte(`{"pins":[{"path":"/f","segs":[999999]}]}`))
	f.Add([]byte(`{"staged":[{"path":"/f","segs":[-1]}]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, state []byte) {
		if _, err := attachTo(t, state); err != nil && !errors.Is(err, hsm.ErrCorruptState) {
			t.Fatalf("Attach: %v, want nil or ErrCorruptState", err)
		}
	})
}
