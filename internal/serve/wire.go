package serve

import (
	"errors"
	"time"
)

// The JSON wire types of the serving API. The typed client
// (internal/serve/client) shares these; keep every field backward
// compatible — add, never repurpose.

// SessionCreateRequest opens a secure session (POST /v1/sessions). The
// server negotiates the session key; the client only ever sees the opaque
// session ID.
type SessionCreateRequest struct {
	// IdleTimeoutMs, when positive, requests a shorter idle expiry than the
	// server default. Requests above the server default are clamped.
	IdleTimeoutMs int64 `json:"idle_timeout_ms,omitempty"`
}

// SessionCreateResponse describes the issued session.
type SessionCreateResponse struct {
	SessionID     string    `json:"session_id"`
	IdleTimeoutMs int64     `json:"idle_timeout_ms"`
	ExpiresAt     time.Time `json:"expires_at"` // idle horizon; each use extends it
}

// InferRequest is one secure-inference order (POST /v1/infer).
type InferRequest struct {
	// Network names the model ("MobileNet", "ResNet18", …, or the serving
	// demo network "Mini"); see GET /v1/designs for the registry.
	Network string `json:"network"`
	// Seed deterministically generates the model weights and input
	// (nn.RandomModel), so a request is self-contained and repeatable.
	Seed int64 `json:"seed"`
	// Input, when non-empty, overrides the seed-generated input activations
	// (flat channel-major C*H*W int32 layout).
	Input Tensor `json:"input,omitempty"`
	// Session, when non-empty, binds the inference to a secure session:
	// the host issues one authenticated command per layer under the
	// session key before the functional execution.
	Session string `json:"session,omitempty"`
	// ReturnOutput asks for the full output tensor in the response
	// (otherwise only dimensions and a checksum are returned).
	ReturnOutput bool `json:"return_output,omitempty"`
	// TimeoutMs, when positive, sets the per-request deadline (queue wait
	// included); the server clamps it to its configured maximum.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// ReturnSnapshot, on a session-bound inference, asks the server to
	// piggyback the session's sealed post-inference snapshot on the
	// response. The replica-sharding gateway sets it so its write-through
	// session vault is updated atomically with every inference; ordinary
	// clients can ignore it.
	ReturnSnapshot bool `json:"return_snapshot,omitempty"`
}

// Tensor is a flat int32 tensor on the wire, a []int32 to every caller. It
// decodes without reflection into exactly what encoding/json decodes into a
// []int32 (FuzzDecodeInferRequest holds the two equal).
type Tensor []int32

var errTensor = errors.New("serve: tensor is not an array of int32 values")

// UnmarshalJSON parses a value encoding/json has validated and trimmed. As
// encoding/json does, it takes null for the array (nil) or an element (which
// keeps the old value at its index, within the slice's capacity, else 0),
// reuses the capacity and leaves [] non-nil. Any other non-array value or
// element, such as a fraction, an exponent or a value past int32, is an error.
func (t *Tensor) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*t = nil
		return nil
	}
	if len(b) == 0 || b[0] != '[' {
		return errTensor
	}
	s := (*t)[:0]
	i := skipSpace(b, 1)
	if i < len(b) && b[i] == ']' {
		s = Tensor{}
	}
	for i < len(b) && b[i] != ']' {
		var v int32
		if len(b)-i >= 4 && string(b[i:i+4]) == "null" {
			if len(s) < cap(s) {
				v = s[:len(s)+1][len(s)]
			}
			i += 4
		} else if v, i = parseInt32(b, i); i < 0 {
			return errTensor
		}
		s = append(s, v)
		if i = skipSpace(b, i); i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
		} else if i == len(b) || b[i] != ']' {
			return errTensor
		}
	}
	*t = s
	return nil
}

// skipSpace returns the index of the first non-whitespace byte from i on.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// parseInt32 parses the integer at b[i:] and returns it and the index past
// its digits, or a negative index for no digit or a value outside int32.
func parseInt32(b []byte, i int) (int32, int) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n int64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if n = n*10 + int64(b[i]-'0'); n > 1<<31 {
			return 0, -1
		}
	}
	if i == start || n == 1<<31 && !neg {
		return 0, -1
	}
	if neg {
		n = -n
	}
	return int32(n), i
}

// RecoveryInfo mirrors resilience.Stats on the wire.
type RecoveryInfo struct {
	Retries    int  `json:"retries"`
	Recovered  int  `json:"recovered"`
	Persistent int  `json:"persistent"`
	Breached   bool `json:"breached"`
}

// InferResponse is a completed secure inference.
type InferResponse struct {
	Network    string `json:"network"`
	Layers     int    `json:"layers"`
	OutputDims [3]int `json:"output_dims"` // channels, height, width
	// OutputSum is the FNV-1a checksum of the output tensor — enough for a
	// client to verify against a local reference run.
	OutputSum uint64 `json:"output_sum"`
	Output    Tensor `json:"output,omitempty"` // only with ReturnOutput

	// Cycles is the simulated NPU execution time of the model under the
	// Seculator design; Commands counts authenticated layer commands (zero
	// for sessionless requests, which skip the command channel).
	Cycles   uint64 `json:"cycles"`
	Commands int    `json:"commands"`

	// BatchSize is never set — nothing batches. It is kept only so the
	// frozen benchmark/ compiles.
	BatchSize int     `json:"batch_size,omitempty"`
	QueueMs   float64 `json:"queue_ms"` // admission to execution start
	RunMs     float64 `json:"run_ms"`   // execution wall time

	// ResidencyHit reports that this inference attached to an
	// already-resident verified weight cache entry instead of
	// re-provisioning its weights.
	ResidencyHit bool `json:"residency_hit,omitempty"`

	Recovery RecoveryInfo `json:"recovery"`

	// Snapshot is the sealed post-inference session snapshot, present only
	// when the request set ReturnSnapshot on a session-bound inference.
	Snapshot *SnapshotEnvelope `json:"snapshot,omitempty"`
	// Replica is the name of the replica that served the request. The
	// gateway injects it on proxied responses; a standalone server leaves
	// it empty.
	Replica string `json:"replica,omitempty"`
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
	// Class is the machine-readable error class; see the error→status
	// table in DESIGN.md §9: bad_request, config, unknown_session,
	// queue_full, deadline, shutdown, integrity, freshness, channel,
	// internal, unauthorized, rate_limited, quarantined,
	// snapshot_integrity, session_exists.
	Class string `json:"class"`
	// Layer carries the layer index of a security violation when the
	// typed error localized one.
	Layer *int `json:"layer,omitempty"`
	// RetryAfterMs accompanies 429/503 backpressure responses.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// SessionEvicted reports that the offending session was evicted
	// (breach latched server-side); the client must open a new session.
	SessionEvicted bool `json:"session_evicted,omitempty"`
}

// SnapshotEnvelope is an integrity-sealed session snapshot
// (GET /v1/sessions/{id}/snapshot response, POST /v1/sessions/restore
// request body). Payload is the serialized session state; MAC is
// hex(HMAC-SHA256) over the domain-separated version and payload under the
// server's snapshot key. Clients treat the envelope as opaque: any
// modification makes the import fail with class snapshot_integrity.
type SnapshotEnvelope struct {
	Version int    `json:"version"`
	Payload []byte `json:"payload"` // base64 on the wire (encoding/json default)
	MAC     string `json:"mac"`
}

// SnapshotResponse wraps the exported envelope with its session identity.
type SnapshotResponse struct {
	SessionID string           `json:"session_id"`
	Snapshot  SnapshotEnvelope `json:"snapshot"`
}

// RestoreRequest imports a previously exported snapshot
// (POST /v1/sessions/restore).
type RestoreRequest struct {
	Snapshot SnapshotEnvelope `json:"snapshot"`
}

// DesignInfo is one protection design of the registry (the Table 5 row).
type DesignInfo struct {
	Name          string `json:"name"`
	Encryption    string `json:"encryption,omitempty"`
	Integrity     string `json:"integrity,omitempty"`
	AntiReplay    string `json:"anti_replay,omitempty"`
	MEAProtection bool   `json:"mea_protection,omitempty"`
}

// NetworkInfo is one servable network of the registry.
type NetworkInfo struct {
	Name   string `json:"name"`
	Layers int    `json:"layers"`
	Params int64  `json:"params"`
	MACs   int64  `json:"macs"`
}

// DesignsResponse is GET /v1/designs: what the server can run.
type DesignsResponse struct {
	Designs  []DesignInfo  `json:"designs"`
	Networks []NetworkInfo `json:"networks"`
}

// HealthResponse is GET /healthz.
type HealthResponse struct {
	Status   string `json:"status"` // "ok" or "draining"
	Sessions int    `json:"sessions"`
	Queue    int    `json:"queue"`
}
