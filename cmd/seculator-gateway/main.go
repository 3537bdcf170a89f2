// Command seculator-gateway is the replica-sharding front tier: it proxies
// the seculator-serve HTTP API across N replica daemons with
// consistent-hash session routing, health-checked forwarding, live session
// migration on membership change, and hot config reload.
//
// Usage:
//
//	seculator-gateway -config gateway.json                # serve on :8090
//	seculator-gateway -replicas http://a:8080,http://b:8080
//	seculator-gateway -local 3                            # in-process fleet
//	seculator-gateway -local 2 -smoke                     # CI round trip
//	seculator-gateway -chaos -seed 1 -duration 2s         # replica-kill campaign
//
// -config points at a JSON file ({"replicas":[{"name":…,"url":…}],
// "vnodes":…,"load_factor":…}); SIGHUP or POST /admin/reload re-reads it
// and live-migrates any session whose ring owner changed, without
// dropping in-flight requests. -replicas is the config-free shorthand
// (names auto-assigned replica-0, replica-1, …).
//
// -local N starts N in-process replicas and fronts them on -addr — a
// self-contained fleet for development. -smoke is the CI mode: bring up a
// local fleet, run one session round trip through the gateway verified
// against the reference computation, then drain. -chaos runs the
// multi-replica kill campaign (traffic mid-run, one replica killed, zero
// session loss required) and exits non-zero on any violation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"seculator"
	"seculator/internal/gateway"
	"seculator/internal/serve"
	"seculator/internal/serve/chaos"
	"seculator/internal/serve/client"
	"seculator/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", ":8090", "listen address")
		cfgPath  = flag.String("config", "", "gateway config file (JSON); SIGHUP re-reads it")
		replicas = flag.String("replicas", "", "comma-separated replica base URLs (shorthand for -config)")
		adminKey = flag.String("admin-key", "", "admin key shared with the replicas' /admin surface; also gates POST /admin/reload")
		local    = flag.Int("local", 0, "start N in-process replicas and front them (self-contained fleet)")

		probeEvery = flag.Duration("probe-interval", 500*time.Millisecond, "health probe period")
		failAfter  = flag.Int("fail-after", 3, "consecutive failures before ejecting a replica")
		ejectFor   = flag.Duration("eject-for", 2*time.Second, "hold-down before an ejected replica is probed half-open")

		smoke = flag.Bool("smoke", false, "local fleet, one verified round trip through the gateway, drain, exit")

		doChaos  = flag.Bool("chaos", false, "run the replica-kill campaign instead of serving; exit 1 on violations")
		seed     = flag.Int64("seed", 1, "chaos: campaign seed")
		duration = flag.Duration("duration", 2*time.Second, "chaos: traffic window (kill lands halfway)")
		rps      = flag.Float64("rps", 40, "chaos: stateless traffic rate through the gateway")
		sessions = flag.Int("sessions", 4, "chaos: live sessions carried through the kill")
	)
	flag.Parse()

	health := gateway.HealthConfig{
		ProbeInterval: *probeEvery,
		FailAfter:     *failAfter,
		EjectFor:      *ejectFor,
	}

	switch {
	case *smoke:
		n := *local
		if n <= 0 {
			n = 2
		}
		if err := runSmoke(n); err != nil {
			fail(err)
		}
	case *doChaos:
		n := *local
		if n <= 0 {
			n = 3
		}
		if err := runChaos(*seed, n, *sessions, *rps, *duration); err != nil {
			fail(err)
		}
	case *local > 0:
		if err := runLocal(*local, *addr, health); err != nil {
			fail(err)
		}
	default:
		if err := runGateway(*addr, *cfgPath, *replicas, *adminKey, health); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "seculator-gateway: %v\n", err)
	os.Exit(1)
}

// replicasConfig expands the -replicas shorthand into a Config.
func replicasConfig(urls string) gateway.Config {
	var cfg gateway.Config
	for i, u := range strings.Split(urls, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		cfg.Replicas = append(cfg.Replicas, gateway.ReplicaConfig{
			Name: fmt.Sprintf("replica-%d", i), URL: u,
		})
	}
	return cfg
}

// runGateway serves until SIGTERM/SIGINT; SIGHUP hot-reloads the config
// file without dropping in-flight requests.
func runGateway(addr, cfgPath, replicas, adminKey string, health gateway.HealthConfig) error {
	opts := gateway.Options{ConfigPath: cfgPath, AdminKey: adminKey, Health: health}
	if cfgPath == "" {
		if replicas == "" {
			return errors.New("need -config or -replicas (or -local N)")
		}
		opts.Config = replicasConfig(replicas)
	}
	g, err := gateway.New(opts)
	if err != nil {
		return err
	}
	defer g.Close()
	return serveLoop(g, addr, cfgPath != "")
}

// serveLoop runs the HTTP front until SIGTERM/SIGINT, handling SIGHUP
// reloads when the config came from a file.
func serveLoop(g *gateway.Gateway, addr string, hupReloads bool) error {
	hs := &http.Server{Addr: addr, Handler: g.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("seculator-gateway: listening on %s (ring gen %d)\n", addr, g.Gen())
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	for {
		select {
		case err := <-errc:
			return err
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				if !hupReloads {
					fmt.Println("seculator-gateway: SIGHUP ignored (no -config file)")
					continue
				}
				moved, err := g.ReloadFromFile()
				if err != nil {
					fmt.Fprintf(os.Stderr, "seculator-gateway: reload failed: %v\n", err)
					continue
				}
				fmt.Printf("seculator-gateway: reloaded (ring gen %d, %d sessions migrated)\n", g.Gen(), moved)
				continue
			}
			fmt.Printf("seculator-gateway: %v, draining\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			return hs.Shutdown(ctx)
		}
	}
}

// runLocal brings up an in-process fleet and fronts it on addr.
func runLocal(n int, addr string, health gateway.HealthConfig) error {
	lc, err := gateway.StartLocal(gateway.LocalOptions{
		Replicas: n,
		Gateway:  gateway.Options{Health: health},
	})
	if err != nil {
		return err
	}
	defer lc.Stop()
	for _, r := range lc.Replicas {
		fmt.Printf("seculator-gateway: local %s at %s\n", r.Name, r.URL)
	}
	return serveLoop(lc.Gateway, addr, false)
}

// runChaos executes the replica-kill campaign and reports.
func runChaos(seed int64, replicas, sessions int, rps float64, duration time.Duration) error {
	res, err := chaos.RunGateway(context.Background(), chaos.GatewayOptions{
		Seed:     seed,
		Replicas: replicas,
		Sessions: sessions,
		RPS:      rps,
		Duration: duration,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Print(res)
	if !res.Ok() {
		return fmt.Errorf("chaos: %d violations", len(res.Violations))
	}
	return nil
}

// runSmoke is the CI round trip: a session inference through the gateway
// whose output checksum must equal the local reference computation, the
// session's sealed state visible via the gateway snapshot API, then a
// clean stop.
func runSmoke(replicas int) error {
	lc, err := gateway.StartLocal(gateway.LocalOptions{Replicas: replicas})
	if err != nil {
		return err
	}
	defer lc.Stop()
	c := client.New(lc.GatewayURL, nil)
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
	if resp.Replica == "" {
		return errors.New("smoke: response not stamped with the serving replica")
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
	if _, err := c.SnapshotSession(ctx, sess.SessionID); err != nil {
		return fmt.Errorf("smoke: snapshot through gateway: %w", err)
	}
	if err := c.CloseSession(ctx, sess.SessionID); err != nil {
		return fmt.Errorf("smoke: close session: %w", err)
	}
	fmt.Printf("SMOKE OK: %d replicas behind the gateway, served by %s, checksum %#x\n",
		replicas, resp.Replica, resp.OutputSum)
	return nil
}
