package dump

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/lfs"
)

// Replicas prints the durability picture of the tertiary tier: the
// per-library capacity/health summary, the per-segment replica map
// (primary location plus every replica's location and reachability), and
// the under-replicated segment list the repair daemon is working from.
func Replicas(w io.Writer, hl *core.HighLight) {
	rf := hl.Replicas
	if rf < 1 {
		rf = 1
	}
	fmt.Fprintf(w, "Tertiary replication at t=%.3fs (replication factor %d)\n",
		hl.K.Now().Seconds(), rf)

	fmt.Fprintf(w, "libraries:\n")
	for _, st := range hl.LibraryStatuses() {
		health := "up"
		if st.Down {
			health = "DOWN"
		}
		fmt.Fprintf(w, "  lib %d %-14s %-4s  segs: %d total, %d used, %d free, %d reserved  io: %d reads, %d writes, %d outstanding\n",
			st.ID, st.Name, health, st.TotalSegs, st.UsedSegs, st.FreeSegs, st.NoStoreSegs, st.Reads, st.Writes, st.Outstanding)
	}

	catalog := hl.ReplicaCatalog()
	primaries := make([]int, 0, len(catalog))
	for p := range catalog {
		primaries = append(primaries, p)
	}
	sort.Ints(primaries)
	if len(primaries) == 0 {
		fmt.Fprintf(w, "replica map: empty (no replicated segments)\n")
	} else {
		fmt.Fprintf(w, "replica map (%d replicated segments):\n", len(primaries))
		for _, p := range primaries {
			fmt.Fprintf(w, "  tseg %4d %s", p, locString(hl, p))
			for _, r := range catalog[p] {
				fmt.Fprintf(w, "  -> %d %s", r, locString(hl, r))
			}
			fmt.Fprintln(w)
		}
	}

	defs := hl.ReplicationDeficits()
	if len(defs) == 0 {
		fmt.Fprintf(w, "under-replicated: none\n")
		return
	}
	fmt.Fprintf(w, "under-replicated (%d segments):\n", len(defs))
	for _, d := range defs {
		fmt.Fprintf(w, "  tseg %4d: %d of %d copies reachable, %d repair source(s)\n",
			d.Tag, d.Copies, d.Target, len(d.Sources))
	}
}

// locString renders a tertiary index as "(dev d vol v seg s, up|down)".
func locString(hl *core.HighLight, idx int) string {
	d, v, vs, ok := hl.Amap.Loc(hl.Amap.SegForIndex(idx))
	if !ok {
		return "(unmapped)"
	}
	health := "up"
	if hl.Libraries()[d].Down() {
		health = "down"
	}
	state := "reserved"
	if hl.FS.TsegUsage(idx).Flags&lfs.SegDirty != 0 {
		state = "written"
	}
	return fmt.Sprintf("(dev %d vol %d seg %d, %s, %s)", d, v, vs, health, state)
}
