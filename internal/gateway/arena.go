package gateway

import (
	"encoding/json"
	"io"
	"net/http"

	"seculator/internal/serve"
)

// arena.go — what the gateway hot path adds to the shared request arenas
// of internal/serve (DESIGN.md §15): an exact-size upstream read and the
// no-replica error classes rendered from bytes serialized once at init.

// readInto drains at most limit bytes of src into pooled scratch and
// returns an exact-size copy the caller owns: one right-sized allocation
// instead of io.ReadAll's doubling growth chain, and no release protocol
// to thread through the relay paths.
func readInto(src io.Reader, limit int64) ([]byte, error) {
	buf, err := serve.ReadBody(src, limit)
	if err != nil {
		return nil, err
	}
	defer serve.PutBody(buf)
	return append([]byte(nil), buf.Bytes()...), nil
}

// Pre-serialized bodies for the gateway's fixed upstream-error classes:
// these fire exactly when the gateway is saturated or its backends are
// gone — the worst moment to allocate and marshal per request.
var (
	preNoReplica          = mustErrorBody("gateway: no available replica")
	preNoSessionReplica   = mustErrorBody("gateway: no available replica for session")
	preNoSessionAccepting = mustErrorBody("gateway: no replica accepting sessions")
)

func mustErrorBody(msg string) []byte {
	b, err := json.Marshal(serve.ErrorBody{Error: msg, Class: ClassUpstream, RetryAfterMs: 1000})
	if err != nil {
		panic(err)
	}
	return b
}

// upstreamErrorStatic writes a pre-serialized 502 body with the
// Retry-After header its retry_after_ms of 1000 stands for.
func (g *Gateway) upstreamErrorStatic(w http.ResponseWriter, pre []byte) {
	g.relay(w, forwardResult{status: http.StatusBadGateway, body: pre, retryAfter: "1"})
}
