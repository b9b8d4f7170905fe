package cliutil

import (
	"errors"
	"testing"
)

func TestValidateFarm(t *testing.T) {
	cases := []struct {
		spindles, stripe int
		parity           bool
		ok               bool
	}{
		{1, 0, false, true},   // single disk
		{4, 16, false, true},  // striped farm
		{4, 0, false, true},   // concatenated farm
		{3, 16, true, true},   // minimal parity geometry
		{1, 16, false, false}, // striping one spindle
		{2, 16, true, false},  // parity needs 3 spindles
		{3, 0, true, false},   // parity needs a stripe
		{-1, 0, false, false},
		{2, -4, false, false},
	}
	for _, c := range cases {
		err := ValidateFarm(c.spindles, c.stripe, c.parity)
		if (err == nil) != c.ok {
			t.Errorf("ValidateFarm(%d, %d, %v) = %v, want ok=%v", c.spindles, c.stripe, c.parity, err, c.ok)
		}
		if err != nil {
			var ue *usageError
			if !errors.As(err, &ue) {
				t.Errorf("ValidateFarm(%d, %d, %v): error not a *usageError: %v", c.spindles, c.stripe, c.parity, err)
			}
		}
	}
}

func TestValidateTertiary(t *testing.T) {
	cases := []struct {
		libraries, replicas int
		ok                  bool
	}{
		{1, 0, true},
		{0, 1, true}, // zero means "one library", one copy
		{2, 2, true},
		{3, 2, true},
		{1, 2, false}, // more copies than libraries
		{2, 3, false},
		{-1, 0, false},
		{1, -1, false},
	}
	for _, c := range cases {
		err := ValidateTertiary(c.libraries, c.replicas)
		if (err == nil) != c.ok {
			t.Errorf("ValidateTertiary(%d, %d) = %v, want ok=%v", c.libraries, c.replicas, err, c.ok)
		}
	}
}
