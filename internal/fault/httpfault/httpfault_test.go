package httpfault

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"scale/internal/fault"
)

// The one precedence both tiers answer by: panic, deadline, drain, input,
// anything else.
func TestClassifyPrecedence(t *testing.T) {
	for _, tc := range []struct {
		err  error
		code int
		kind string
	}{
		{nil, http.StatusOK, ""},
		{fault.Recovered(fmt.Errorf("wrapped: %w", fault.ErrBadShape)), http.StatusInternalServerError, "panic"},
		{fmt.Errorf("layer 1: %w", context.DeadlineExceeded), http.StatusRequestTimeout, "timeout"},
		{context.Canceled, http.StatusRequestTimeout, "timeout"},
		{fmt.Errorf("refused: %w", ErrDraining), http.StatusServiceUnavailable, "draining"},
		{fmt.Errorf("bad: %w", fault.ErrBadGraph), http.StatusBadRequest, "bad_input"},
		{errors.New("disk on fire"), http.StatusInternalServerError, "internal"},
	} {
		if code, kind := Classify(tc.err); code != tc.code || kind != tc.kind {
			t.Errorf("Classify(%v) = %d %q, want %d %q", tc.err, code, kind, tc.code, tc.kind)
		}
	}
}

// Retryable answers carry Retry-After in whole seconds, at least one; others
// carry none.
func TestWriteRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		code  int
		after time.Duration
		want  string
	}{
		{http.StatusTooManyRequests, 3 * time.Second, "3"},
		{http.StatusServiceUnavailable, 200 * time.Millisecond, "1"},
		{http.StatusConflict, 0, "1"},
		{http.StatusBadRequest, 3 * time.Second, ""},
	} {
		rec := httptest.NewRecorder()
		Write(rec, tc.code, "msg", "kind", tc.after)
		if got := rec.Header().Get("Retry-After"); got != tc.want || rec.Code != tc.code {
			t.Errorf("Write(%d, %v): status %d, Retry-After %q, want %q", tc.code, tc.after, rec.Code, got, tc.want)
		}
		if body := rec.Body.String(); body != "{\"error\":\"msg\",\"kind\":\"kind\"}\n" {
			t.Errorf("Write(%d) body %q", tc.code, body)
		}
	}
}
