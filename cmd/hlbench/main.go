// Command hlbench regenerates the evaluation tables of the HighLight paper
// (USENIX Winter 1993): the large-object benchmark (Table 2), file access
// delays (Table 3), the migration time breakdown (Table 4), raw device
// measurements (Table 5), and migrator throughput under disk-arm
// contention (Table 6).
//
// Usage:
//
//	hlbench [-table N] [-ablations] [-quick]
//	        [-disks N] [-stripe U] [-parity] [-streams K]
//	        [-trace FILE] [-json FILE] [-serve ADDR [-rounds N]]
//	        [-clients N [-arrival closed|poisson|bursty] [-deadline D]]
//	        [-profile] [-requests FILE]
//
// Without -table every table is produced; -ablations adds the ablations.
// Both iterate bench.Cells, the one list of cells. -quick runs a reduced-scale
// configuration (seconds instead of a minute); the default reproduces the
// paper's configuration: an 848 MB RZ57 partition, a 3.2 MB buffer cache,
// an HP 6300 MO jukebox constrained to 40 MB per platter, and a 51.2 MB
// large object.
//
// -disks splits the main disk's capacity over N spindles; -stripe U
// interleaves them with a stripe unit of U 4 KB blocks (0 concatenates)
// and -parity adds a rotating parity unit per stripe row. -streams K runs
// K concurrent tertiary I/O streams per library. The defaults keep the paper's
// single-spindle, single-stream configuration.
//
// -trace FILE additionally runs the migration + demand-fetch workload
// with full span retention and writes a Chrome trace-event JSON file
// (load it in chrome://tracing or Perfetto). The trace is keyed to the
// simulator's virtual clock, so repeated runs produce byte-identical
// files. -json FILE writes a machine-readable snapshot of every table's
// metrics plus the observability counters (see `make bench-json`).
//
// -clients N runs the closed-loop multi-client overload workload instead
// of the tables: N clients submit deadline-tagged reads through the
// admission-controlled front end (internal/svc), with the arrival process
// chosen by -arrival and the per-request virtual-time deadline by
// -deadline, and the run reports goodput, shed rate, and interactive
// latency quantiles.
//
// -profile measures the simulator itself on the wall clock: events
// dispatched per second, scheduler overhead per event, event-heap depth,
// and the most-dispatched processes over the migration workload. These
// are physical measurements (they vary by machine) and are never part of
// the deterministic benchmark snapshot.
//
// -requests FILE runs the traced overload cell and writes the /requests
// JSON document: per-request causal traces with critical-path breakdowns
// (queue-wait, cache-lookup, fetch-wait, stripe-io, drive-swap,
// media-transfer, retry-backoff) whose stage durations sum exactly to
// each request's end-to-end latency. Byte-reproducible across runs.
//
// -serve ADDR runs a multi-round migration + demand-fetch workload while
// serving its observability pages over HTTP: Prometheus-format /metrics
// (the kernel self-profile last), the per-segment heat map as /heatmap
// JSON, the migration decision audit as /decisions JSON, per-request
// traces as /requests JSON, and net/http/pprof under /debug/pprof/. The
// workload renders the pages at fixed points of the virtual clock and
// only reads to do so; a handler only loads the latest set, so scraping
// never touches the simulation. After the workload the final pages stay
// up until interrupted. -rounds sets the number of workload rounds.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cliutil"
	"repro/internal/sim"
	"repro/internal/wl"
)

func main() {
	table := flag.Int("table", 0, "produce only this table (1-6); 0 = all")
	quick := flag.Bool("quick", false, "reduced-scale configuration for a fast run")
	ablations := flag.Bool("ablations", false, "also run the ablations ("+ablationNames()+")")
	libraries := flag.Int("libraries", 1, "number of MO changers in the tertiary tier (replicated rigs)")
	replicas := flag.Int("replicas", 0, "tertiary copies per staged segment; <2 disables replication")
	disks := flag.Int("disks", 1, "spindles in the disk farm (capacity split evenly, private channels when >1)")
	stripeUnit := flag.Int("stripe", 0, "stripe unit in 4 KB blocks; 0 concatenates the farm")
	parity := flag.Bool("parity", false, "rotating parity unit per stripe row (needs -stripe and >=3 disks)")
	streams := flag.Int("streams", 1, "concurrent tertiary I/O streams per library; <2 keeps the single historical stream")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the migration workload to this file")
	jsonOut := flag.String("json", "", "write a machine-readable snapshot of all tables + obs counters to this file")
	serveAddr := flag.String("serve", "", "run the migration workload while serving its observability pages on this address (e.g. 127.0.0.1:8080)")
	rounds := flag.Int("rounds", 3, "workload rounds for -serve")
	clients := flag.Int("clients", 0, "run the closed-loop overload workload with this many clients through the admission-controlled front end (0 = off)")
	arrival := flag.String("arrival", "closed", "arrival process for -clients: closed|poisson|bursty")
	deadline := flag.Duration("deadline", 5*time.Second, "per-request virtual-time deadline for -clients")
	profile := flag.Bool("profile", false, "measure the sim kernel itself on the wall clock (events/sec, dispatch overhead, heap depth) over the migration workload")
	requestsOut := flag.String("requests", "", "write the traced overload run's /requests JSON (per-request critical-path breakdowns) to this file")
	flag.Parse()

	check(2, "", cliutil.ValidateFarm(*disks, *stripeUnit, *parity))
	check(2, "", cliutil.ValidateTertiary(*libraries, *replicas))

	scale := bench.FullScale()
	scaleName := "full"
	if *quick {
		scale = bench.QuickScale()
		scaleName = "quick"
	}
	scale.Libraries = *libraries
	scale.Replicas = *replicas
	scale.FarmDisks = *disks
	scale.StripeUnit = *stripeUnit
	scale.Parity = *parity
	scale.Streams = *streams

	if *profile {
		rep, err := bench.ProfileReport(scale)
		check(1, "-profile: ", err)
		fmt.Println(rep)
		return
	}

	if *requestsOut != "" {
		res, err := bench.RunOverload(bench.OverloadSpec{Arrival: wl.ArrivalPoisson, Load: 2})
		check(1, "-requests: ", err)
		check(1, "-requests: ", os.WriteFile(*requestsOut, res.RequestsJSON, 0o644))
		fmt.Printf("wrote %d traced requests (%d stages) to %s\n",
			res.TracedRequests, res.StagesRecorded, *requestsOut)
		return
	}

	if *clients > 0 {
		arr, err := wl.ParseArrival(*arrival)
		check(2, "-arrival: ", err)
		rep, err := bench.OverloadReport(bench.OverloadSpec{
			Clients:  *clients,
			Arrival:  arr,
			Deadline: sim.Time(*deadline),
		})
		check(1, "-clients: ", err)
		fmt.Println(rep)
		return
	}

	if *serveAddr != "" {
		check(1, "-serve: ", serve(*serveAddr, scale, *rounds))
		return
	}

	if *traceOut != "" {
		var buf bytes.Buffer
		check(1, "-trace: ", bench.TraceMigration(scale, &buf))
		check(1, "-trace: ", os.WriteFile(*traceOut, buf.Bytes(), 0o644))
		fmt.Printf("wrote Chrome trace to %s (open in chrome://tracing)\n", *traceOut)
	}
	if *jsonOut != "" {
		var buf bytes.Buffer
		check(1, "-json: ", bench.WriteSnapshot(&buf, scale, scaleName))
		check(1, "-json: ", os.WriteFile(*jsonOut, buf.Bytes(), 0o644))
		fmt.Printf("wrote benchmark snapshot to %s\n", *jsonOut)
	}
	if *traceOut != "" || *jsonOut != "" {
		if *table == 0 && !*ablations {
			return // exporters only; skip the table dump
		}
	}

	// bench.Cells lists the tables first, so by the first ablation ran says
	// whether -table named a table; when it did not, nothing is run.
	ran := false
	for _, c := range bench.Cells {
		if isTable(c) {
			if *table != 0 && c.Name != fmt.Sprintf("table%d", *table) {
				continue
			}
			ran = true
		} else if !*ablations || !ran {
			continue
		}
		rep, err := c.Run(scale)
		check(1, c.Name+": ", err)
		fmt.Println(rep)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "hlbench: no such table %d\n", *table)
		os.Exit(2)
	}
}

// check exits with the given status, after "hlbench: <what><err>" on
// stderr, when err is not nil.
func check(status int, what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "hlbench: %s%v\n", what, err)
		os.Exit(status)
	}
}

// serve answers /metrics, /heatmap, /decisions and /requests on addr with
// the pages bench.ServeMigration last published (503 before the first), and
// /debug/pprof/ from net/http/pprof on the default mux. After the workload
// the final pages stay up until interrupted.
func serve(addr string, scale bench.Scale, rounds int) error {
	var cur atomic.Pointer[bench.Pages]
	route := func(path, ctype string, body func(*bench.Pages) []byte) {
		http.HandleFunc(path, func(w http.ResponseWriter, _ *http.Request) {
			pg := cur.Load()
			if pg == nil {
				http.Error(w, "no pages published yet", http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", ctype)
			w.Write(body(pg))
		})
	}
	route("/metrics", "text/plain; version=0.0.4; charset=utf-8", func(pg *bench.Pages) []byte { return pg.Metrics })
	route("/heatmap", "application/json", func(pg *bench.Pages) []byte { return pg.Heatmap })
	route("/decisions", "application/json", func(pg *bench.Pages) []byte { return pg.Decisions })
	route("/requests", "application/json", func(pg *bench.Pages) []byte { return pg.Requests })
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	go http.Serve(ln, nil) // serves until the process exits
	fmt.Printf("serving http://%s  (/metrics /heatmap /decisions /requests /debug/pprof/)\n", ln.Addr())
	if err := bench.ServeMigration(scale, cur.Store, rounds); err != nil {
		return err
	}
	fmt.Println("workload complete; final pages still served (interrupt to exit)")
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	return nil
}

// isTable reports whether c is one of the paper's tables rather than an
// ablation.
func isTable(c bench.Cell) bool { return strings.HasPrefix(c.Name, "table") }

// ablationNames lists the ablations of bench.Cells for the -ablations help.
func ablationNames() string {
	var names []string
	for _, c := range bench.Cells {
		if !isTable(c) {
			names = append(names, strings.ReplaceAll(strings.TrimPrefix(c.Name, "ablation_"), "_", "-"))
		}
	}
	return strings.Join(names, ", ")
}
