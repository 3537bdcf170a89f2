// Serving demonstrates the secure inference service end to end, all in one
// process: it brings up the HTTP server on a loopback port, opens a secure
// session (the Figure-6 key negotiation, here delivered as an API key),
// runs an inference through the fair-share scheduler, verifies the
// returned checksum against the local reference computation, shows how a
// command-channel breach maps to a typed HTTP error that evicts the
// session, and finally drains the server gracefully.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"seculator"
	"seculator/internal/host"
	"seculator/internal/serve"
	"seculator/internal/serve/client"
	"seculator/internal/workload"
)

func main() {
	// A replay switch the breach demo flips after the honest traffic: the
	// MITM captures layer 2's authenticated command and substitutes it for
	// layer 4's.
	var (
		mu       sync.Mutex
		replay   bool
		captured *host.Packet
	)
	mitm := func(layer int, p *host.Packet) {
		mu.Lock()
		defer mu.Unlock()
		if !replay {
			return
		}
		switch layer {
		case 2:
			cp := *p
			cp.Payload = append([]byte(nil), p.Payload...)
			captured = &cp
		case 4:
			if captured != nil {
				*p = *captured
			}
		}
	}
	srv, err := serve.New(serve.Options{
		InterceptFor: func(string) host.Intercept { return mitm },
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()

	base := "http://" + ln.Addr().String()
	c := client.New(base, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fmt.Printf("serving on %s\n", base)

	// Session round-trip: every layer command rides the authenticated
	// channel, and the output checksum must match the local reference.
	sess, err := c.CreateSession(ctx, serve.SessionCreateRequest{})
	if err != nil {
		log.Fatal(err)
	}
	const seed = 11
	resp, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: seed, Session: sess.SessionID})
	if err != nil {
		log.Fatal(err)
	}
	netw := workload.Mini()
	in, ws := seculator.RandomModel(netw, seed)
	golden, err := seculator.ReferenceInference(netw, in, ws)
	if err != nil {
		log.Fatal(err)
	}
	status := "MISMATCH"
	if serve.OutputSum(golden) == resp.OutputSum {
		status = "matches reference"
	}
	fmt.Printf("session %s: %s in %d cycles, %d authenticated commands, checksum %#x (%s)\n",
		sess.SessionID, resp.Network, resp.Cycles, resp.Commands, resp.OutputSum, status)

	// Breach: the next session request crosses a compromised channel. The
	// server maps the typed ChannelError to 409 and evicts the session.
	mu.Lock()
	replay = true
	mu.Unlock()
	_, err = c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: seed, Session: sess.SessionID})
	var ae *client.APIError
	if errors.As(err, &ae) && client.IsBreach(err) {
		fmt.Printf("replayed command: %d %s at layer %d, session evicted=%v\n",
			ae.StatusCode, ae.Body.Class, *ae.Body.Layer, ae.Body.SessionEvicted)
	} else {
		log.Fatalf("replay was not detected: %v", err)
	}

	// Graceful drain: in-flight work finishes, then the process exits.
	if err := hs.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	if err := srv.Close(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained cleanly")
}
