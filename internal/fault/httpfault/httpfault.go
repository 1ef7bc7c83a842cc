// Package httpfault is the one error→HTTP answer of both serving tiers, the
// internal/serve front and the internal/shard workers: the status and kind
// an error maps to, the JSON error body, and the Retry-After rule. It sits
// beside package fault, not in it, so the kernels that import fault do not
// link net/http.
package httpfault

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"scale/internal/fault"
)

// ErrDraining marks work refused because the server is shutting down.
var ErrDraining = errors.New("server draining")

// Body is every non-2xx payload of both tiers. Kind is a stable
// machine-readable classification: usage, bad_input, timeout,
// over_capacity, draining, panic, internal, and the tier-specific
// compacting (front) and no_run (worker).
type Body struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// Classify maps an error to its HTTP status and kind, in precedence order:
// contained panics are 500 even when the panic value wraps an input
// sentinel, deadlines and cancellations 408, drain refusals 503, input
// sentinels 400, anything else 500.
func Classify(err error) (int, string) {
	if err == nil {
		return http.StatusOK, ""
	}
	if _, ok := fault.AsPanic(err); ok {
		return http.StatusInternalServerError, "panic"
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout, "timeout"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case fault.IsInput(err):
		return http.StatusBadRequest, "bad_input"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// Write answers code with a Body. The retryable answers — 429 load
// shedding, 503 draining, 409 conflict — carry Retry-After: retryAfter in
// whole seconds, at least one.
func Write(w http.ResponseWriter, code int, msg, kind string, retryAfter time.Duration) {
	switch code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusConflict:
		w.Header().Set("Retry-After", strconv.Itoa(max(int(retryAfter/time.Second), 1)))
	}
	WriteJSON(w, code, Body{Error: msg, Kind: kind})
}

// WriteJSON answers code with v as JSON, the one response writer of both
// tiers.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) // the client is gone if this fails
}
