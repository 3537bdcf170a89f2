package gateway

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http/httptest"
	"time"

	"seculator/internal/serve"
)

// cluster.go — LocalCluster: an in-process replica fleet behind a
// gateway, on loopback listeners. It is the shared fixture of the
// gateway's tests, the loadgen -replicas mode, the multi-replica chaos
// campaign, and the conformance gateway oracle — all of which need "N
// replicas + gateway, shared snapshot/admin keys, and a way to kill or
// drain one replica".

// LocalReplica is one in-process replica: the serve.Server and its
// loopback listener.
type LocalReplica struct {
	Name   string
	URL    string
	Server *serve.Server

	hs     *httptest.Server
	killed bool
}

// LocalOptions configures StartLocal.
type LocalOptions struct {
	// Replicas is the fleet size (default 2).
	Replicas int
	// ServeOptions builds replica i's serve.Options. SnapshotKey and
	// AdminKey are overwritten with the cluster-shared keys after the
	// callback (they must match fleet-wide or migration cannot work).
	// Nil means defaults.
	ServeOptions func(i int) serve.Options
	// Gateway overrides gateway options; Config and AdminKey are filled in
	// by StartLocal.
	Gateway Options
}

// LocalCluster is the running fleet.
type LocalCluster struct {
	Gateway    *Gateway
	GatewayURL string
	Replicas   []*LocalReplica

	SnapshotKey []byte
	AdminKey    string

	ghs *httptest.Server
}

// StartLocal brings up the fleet and its gateway.
func StartLocal(opts LocalOptions) (*LocalCluster, error) {
	n := opts.Replicas
	if n <= 0 {
		n = 2
	}
	snapKey := make([]byte, 32)
	if _, err := rand.Read(snapKey); err != nil {
		return nil, err
	}
	var adminRaw [16]byte
	if _, err := rand.Read(adminRaw[:]); err != nil {
		return nil, err
	}
	c := &LocalCluster{SnapshotKey: snapKey, AdminKey: hex.EncodeToString(adminRaw[:])}

	cfg := Config{}
	for i := 0; i < n; i++ {
		var so serve.Options
		if opts.ServeOptions != nil {
			so = opts.ServeOptions(i)
		}
		so.SnapshotKey = snapKey
		so.AdminKey = c.AdminKey
		srv, err := serve.New(so)
		if err != nil {
			c.Stop()
			return nil, err
		}
		hs := httptest.NewServer(srv.Handler())
		rep := &LocalReplica{
			Name:   fmt.Sprintf("replica-%d", i),
			URL:    hs.URL,
			Server: srv,
			hs:     hs,
		}
		c.Replicas = append(c.Replicas, rep)
		cfg.Replicas = append(cfg.Replicas, ReplicaConfig{Name: rep.Name, URL: rep.URL})
	}

	gopts := opts.Gateway
	gopts.Config = cfg
	gopts.AdminKey = c.AdminKey
	g, err := New(gopts)
	if err != nil {
		c.Stop()
		return nil, err
	}
	c.Gateway = g
	c.ghs = httptest.NewServer(g.Handler())
	c.GatewayURL = c.ghs.URL
	return c, nil
}

// Replica returns the replica by name, or nil.
func (c *LocalCluster) Replica(name string) *LocalReplica {
	for _, r := range c.Replicas {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Kill abruptly takes a replica down: active connections are severed and
// the listener closes, so the gateway sees transport errors immediately —
// the crash the failover path exists for. The serve.Server drains in the
// background (its in-process state is irrelevant once unreachable).
func (c *LocalCluster) Kill(name string) {
	r := c.Replica(name)
	if r == nil || r.killed {
		return
	}
	r.killed = true
	r.hs.CloseClientConnections()
	go r.hs.Close()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = r.Server.Close(ctx)
	}()
}

// Drain puts a replica into graceful pre-drain (it keeps serving, refuses
// new sessions, reports "draining" on /healthz). The gateway's prober
// notices on its next round and evacuates the replica's sessions.
func (c *LocalCluster) Drain(name string) {
	if r := c.Replica(name); r != nil {
		r.Server.BeginDrain()
	}
}

// Stop tears the whole fleet down (gateway first, then replicas).
func (c *LocalCluster) Stop() {
	if c.Gateway != nil {
		c.Gateway.Close()
	}
	if c.ghs != nil {
		c.ghs.Close()
	}
	for _, r := range c.Replicas {
		if r.killed {
			continue
		}
		r.hs.CloseClientConnections()
		r.hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = r.Server.Close(ctx)
		cancel()
	}
}
