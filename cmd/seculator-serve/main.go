// Command seculator-serve is the secure inference serving daemon: it
// exposes the Seculator host/NPU stack over HTTP with session management,
// fair-share scheduling and admission control, and drains gracefully on
// SIGTERM/SIGINT.
//
// Usage:
//
//	seculator-serve                          # serve on :8080
//	seculator-serve -addr 127.0.0.1:9090
//	seculator-serve -queue 512 -workers 8
//	seculator-serve -loadgen -rps 200 -duration 5s -network Mini
//	seculator-serve -loadgen -target http://host:8080 -rps 100
//	seculator-serve -loadgen -gateway http://gw:8080 -rps 100   # per-replica attribution
//	seculator-serve -loadgen -replicas 2 -rps 100    # in-process cluster + gateway
//	seculator-serve -tenants tenants.json       # multi-tenant front
//	seculator-serve -snapshot-key $KEY          # stable session-snapshot sealing
//	seculator-serve -chaos -seed 1 -duration 1s # seeded fault campaign, exit 0/1
//	seculator-serve -smoke                   # start, one round-trip, drain
//	seculator-serve -loadgen -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -loadgen without -target starts an in-process server, drives it at the
// requested rate, prints p50/p95/p99 latency and sustained RPS, and exits.
// -gateway points the generator at a replica-sharding gateway (the report
// then attributes completions per replica); -replicas N instead starts an
// in-process N-replica cluster fronted by a gateway and drives that.
// -tenants takes a path to (or an inline) JSON array of tenant configs
// ({"key","name","weight","rate_rps","burst","max_pending"}); without it
// the server runs single-tenant and unauthenticated as before.
// -chaos runs the three-phase isolation campaign from the chaos package
// (honest + slow + adversarial tenants, mid-attack restart) and exits
// non-zero if any isolation invariant is violated.
// -smoke is the CI mode: start, one session round-trip verified against
// the reference computation, graceful shutdown.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"seculator"
	"seculator/internal/gateway"
	"seculator/internal/serve"
	"seculator/internal/serve/chaos"
	"seculator/internal/serve/client"
	"seculator/internal/serve/loadgen"
	"seculator/internal/workload"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		queue   = flag.Int("queue", 256, "admission queue depth (429 beyond it)")
		workers = flag.Int("workers", 0, "requests executing at once (0 = GOMAXPROCS)")
		idle    = flag.Duration("session-idle", 5*time.Minute, "session idle expiry")
		timeout = flag.Duration("timeout", 30*time.Second, "default per-request deadline")

		tenants = flag.String("tenants", "", "tenant registry: path to, or inline, JSON array of tenant configs (empty = single anonymous tenant)")
		snapKey = flag.String("snapshot-key", "", "session-snapshot sealing key (empty = random per process; set it so snapshots survive restarts)")

		doChaos = flag.Bool("chaos", false, "run the seeded isolation campaign instead of serving; exit 1 on violations")
		seed    = flag.Int64("seed", 1, "chaos campaign / loadgen schedule seed (same seed = identical request schedule)")
		restart = flag.Bool("restart", true, "chaos: kill and restore the server mid-attack")

		doLoad   = flag.Bool("loadgen", false, "run the load generator instead of serving")
		target   = flag.String("target", "", "loadgen target base URL (empty = in-process server)")
		gwURL    = flag.String("gateway", "", "loadgen: gateway base URL to drive (reports per-replica attribution)")
		replicas = flag.Int("replicas", 0, "loadgen: start an in-process N-replica cluster behind a gateway and drive that")
		rps      = flag.Float64("rps", 100, "loadgen target arrival rate")
		duration = flag.Duration("duration", 3*time.Second, "loadgen run length")
		network  = flag.String("network", "Mini", "loadgen network")
		sessions = flag.Bool("sessions", false, "loadgen: bind requests to a secure session")
		apiKey   = flag.String("api-key", "", "loadgen: API key sent with every request (for tenant-gated targets)")
		fixed    = flag.Bool("fixed-model", false, "loadgen: pin one model and vary inputs (residency-cache serving shape)")
		mseed    = flag.Int64("model-seed", 1, "loadgen: pinned model seed under -fixed-model")
		poisson  = flag.Bool("poisson", false, "loadgen: exponential (memoryless) inter-arrival gaps instead of uniform spacing")
		noRes    = flag.Bool("no-residency", false, "disable the verified-weight residency cache (per-request provisioning)")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (loadgen/chaos/smoke)")
		memProf = flag.String("memprofile", "", "write an end-of-run allocation profile to this file")

		smoke = flag.Bool("smoke", false, "start, one verified round-trip, graceful drain, exit")
	)
	flag.Parse()

	opts := serve.Options{
		Scheduler: serve.SchedulerConfig{
			Workers:  *workers,
			MaxQueue: *queue,
		},
		SessionIdle:    *idle,
		DefaultTimeout: *timeout,
		Residency:      serve.ResidencyConfig{Disabled: *noRes},
	}
	if *tenants != "" {
		tcs, err := loadTenants(*tenants)
		if err != nil {
			fail(err)
		}
		opts.Tenants = tcs
	}
	if *snapKey != "" {
		opts.SnapshotKey = []byte(*snapKey)
	}

	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fail(err)
	}

	switch {
	case *smoke:
		if err := runSmoke(opts); err != nil {
			stopProf()
			fail(err)
		}
	case *doChaos:
		if err := runChaos(opts, *seed, *duration, *restart); err != nil {
			stopProf()
			fail(err)
		}
	case *doLoad:
		if err := runLoadgen(opts, loadTarget(*target, *gwURL), *replicas, *apiKey, loadgen.Options{
			RPS: *rps, Duration: *duration, Network: *network, Sessions: *sessions,
			FixedModel: *fixed, ModelSeed: *mseed, Seed: *seed, Poisson: *poisson,
		}); err != nil {
			stopProf()
			fail(err)
		}
	default:
		if err := runServer(opts, *addr); err != nil {
			stopProf()
			fail(err)
		}
	}
	if err := stopProf(); err != nil {
		fail(err)
	}
}

// startProfiles arms the requested pprof outputs and returns the function
// that flushes them; the in-process loadgen runs server and generator in
// one process, so a single CPU/alloc profile covers the whole serving hot
// path. The returned stop is idempotent.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		fmt.Printf("seculator-serve: profiling CPU to %s\n", cpuPath)
	}
	done := false
	return func() error {
		if done {
			return nil
		}
		done = true
		if cpuPath != "" {
			pprof.StopCPUProfile()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
			fmt.Printf("seculator-serve: wrote allocation profile to %s\n", memPath)
		}
		return nil
	}, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "seculator-serve: %v\n", err)
	os.Exit(1)
}

// loadTenants parses the -tenants argument: a path to a JSON file, or the
// JSON array itself.
func loadTenants(arg string) ([]serve.TenantConfig, error) {
	data := []byte(arg)
	if !strings.HasPrefix(strings.TrimSpace(arg), "[") {
		b, err := os.ReadFile(arg)
		if err != nil {
			return nil, fmt.Errorf("tenants: %w", err)
		}
		data = b
	}
	var tcs []serve.TenantConfig
	if err := json.Unmarshal(data, &tcs); err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	for i, tc := range tcs {
		if tc.Key == "" {
			return nil, fmt.Errorf("tenants: entry %d has no key", i)
		}
	}
	return tcs, nil
}

// runChaos drives the three-phase isolation campaign against an
// in-process server and exits non-zero on any invariant violation. The
// scheduler shape comes from the serving flags; the tenant cast is fixed
// (honest on sessions, slow, adversarial at 2x its rate limit) so the
// campaign always exercises every fault class.
func runChaos(opts serve.Options, seed int64, phase time.Duration, restart bool) error {
	res, err := chaos.Run(context.Background(), chaos.Options{
		Seed: seed,
		Plans: []chaos.TenantPlan{
			{
				Tenant:   serve.TenantConfig{Key: "k-good", Name: "good", Weight: 2, RateRPS: 200, Burst: 50, MaxPending: 64},
				RPS:      30,
				Sessions: true,
			},
			{
				Tenant:           serve.TenantConfig{Key: "k-slow", Name: "slow", Weight: 1, RateRPS: 200, Burst: 50, MaxPending: 64},
				RPS:              10,
				SlowEveryLayerMs: 2,
			},
			{
				Tenant:      serve.TenantConfig{Key: "k-evil", Name: "evil", Weight: 1, RateRPS: 40, Burst: 10, MaxPending: 64},
				RPS:         20,
				Adversarial: true,
			},
		},
		Scheduler: opts.Scheduler,
		Quarantine: serve.QuarantineConfig{
			ThrottleAfter: 1, OpenAfter: 3, Window: time.Minute,
			OpenFor: 50 * time.Millisecond, MaxOpenFor: 300 * time.Millisecond,
			ThrottleRPS: 1000, ThrottleBurst: 1000, ProbeSuccesses: 2,
		},
		SnapshotKey: opts.SnapshotKey,
		PhaseFor:    phase,
		Restart:     restart,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Print(res)
	if !res.Ok() {
		return fmt.Errorf("chaos: %d isolation violations", len(res.Violations))
	}
	return nil
}

// runServer serves until SIGTERM/SIGINT, then drains: the listener closes,
// in-flight HTTP requests finish, the scheduler delivers everything it
// admitted, and only then does the process exit.
func runServer(opts serve.Options, addr string) error {
	srv, err := serve.New(opts)
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("seculator-serve: listening on %s\n", addr)
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("seculator-serve: %v, draining\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := srv.Close(ctx); err != nil {
		return fmt.Errorf("scheduler drain: %w", err)
	}
	fmt.Println("seculator-serve: drained cleanly")
	return nil
}

// startInProcess brings a server up on a loopback listener and returns its
// base URL plus a drain function.
func startInProcess(opts serve.Options) (string, func() error, error) {
	srv, err := serve.New(opts)
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	drain := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		return srv.Close(ctx)
	}
	return "http://" + ln.Addr().String(), drain, nil
}

// loadTarget resolves the loadgen base URL: -gateway wins over -target so
// a gateway run gets per-replica attribution without repurposing -target.
func loadTarget(target, gatewayURL string) string {
	if gatewayURL != "" {
		return gatewayURL
	}
	return target
}

func runLoadgen(opts serve.Options, target string, replicas int, apiKey string, lopts loadgen.Options) error {
	base := target
	drain := func() error { return nil }
	switch {
	case base != "":
		// remote target; nothing to start or drain
	case replicas > 0:
		lc, err := gateway.StartLocal(gateway.LocalOptions{
			Replicas:     replicas,
			ServeOptions: func(int) serve.Options { return opts },
		})
		if err != nil {
			return err
		}
		base = lc.GatewayURL
		drain = func() error { lc.Stop(); return nil }
		fmt.Printf("seculator-serve: in-process %d-replica cluster behind gateway at %s\n", replicas, base)
	default:
		var err error
		base, drain, err = startInProcess(opts)
		if err != nil {
			return err
		}
		fmt.Printf("seculator-serve: in-process server at %s\n", base)
	}
	c := client.New(base, nil)
	if apiKey != "" {
		c.SetAPIKey(apiKey)
	}
	rep, err := loadgen.Run(context.Background(), c, lopts)
	if err != nil {
		return err
	}
	fmt.Print(rep)
	m, err := c.Metrics(context.Background())
	if err == nil {
		fmt.Println("server metrics after run:")
		fmt.Print(m)
	}
	return drain()
}

// runSmoke is the CI round-trip: session inference over HTTP whose output
// checksum must equal the local reference computation, then a clean drain.
func runSmoke(opts serve.Options) error {
	base, drain, err := startInProcess(opts)
	if err != nil {
		return err
	}
	c := client.New(base, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	sess, err := c.CreateSession(ctx, serve.SessionCreateRequest{})
	if err != nil {
		return fmt.Errorf("smoke: create session: %w", err)
	}
	const seed = 7
	resp, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: seed, Session: sess.SessionID})
	if err != nil {
		return fmt.Errorf("smoke: infer: %w", err)
	}

	net := workload.Mini()
	in, ws := seculator.RandomModel(net, seed)
	golden, err := seculator.ReferenceInference(net, in, ws)
	if err != nil {
		return fmt.Errorf("smoke: reference: %w", err)
	}
	if want := serve.OutputSum(golden); resp.OutputSum != want {
		return fmt.Errorf("smoke: output checksum %#x, reference %#x", resp.OutputSum, want)
	}
	if resp.Commands != len(net.Layers) {
		return fmt.Errorf("smoke: %d commands for %d layers", resp.Commands, len(net.Layers))
	}
	if err := c.CloseSession(ctx, sess.SessionID); err != nil {
		return fmt.Errorf("smoke: close session: %w", err)
	}
	if err := drain(); err != nil {
		return fmt.Errorf("smoke: drain: %w", err)
	}
	fmt.Printf("SMOKE OK: %s over HTTP, %d commands, checksum %#x, drained cleanly\n",
		resp.Network, resp.Commands, resp.OutputSum)
	return nil
}
