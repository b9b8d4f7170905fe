package bench

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// TraceMigration runs the paper's migration workload (write a large
// object, migrate it, demand-fetch part of it back) with full span
// retention and writes the Chrome trace-event JSON to w. The run is
// pure virtual time, so the bytes written are identical on every
// invocation — diff two traces and any change is a behavior change.
func TraceMigration(s Scale, w io.Writer) error {
	r := newHLRig(s)
	return r.run(func(p *sim.Proc) error {
		r.hl.Obs.EnableTrace()
		if err := migrateAndFetch(p, r, s); err != nil {
			return err
		}
		return r.hl.Obs.WriteChromeTrace(w)
	})
}

// migrateAndFetch drives the paper's end-to-end story on an open rig:
// large-object write, migration, cache eviction, demand fetch. Shared by
// TraceMigration, the -json snapshot and the kernel self-profile so all
// exercise every counter (fetches and cache misses included).
func migrateAndFetch(p *sim.Proc, r *fsRig, s Scale) error {
	f, _, err := migrateLargeObject(p, r, s)
	if err == nil {
		// Demand-fetch path: drop the buffers and evict the cached lines,
		// then read the head of the object back through the block map.
		r.hl.FS.DropFileBuffers(p, f.Inum())
		_, err = r.hl.Svc.EjectAll()
	}
	if err == nil {
		_, err = f.ReadAt(p, make([]byte, 64*1024), 0)
	}
	if err != nil {
		return fmt.Errorf("bench: trace workload: %w", err)
	}
	return nil
}
