package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
)

// ledger counts attempted and failed units and records why a run is not a
// valid measurement. Errors, refused or timed-out requests and wrong
// answers all count as failed units; a run with any failure, or whose load
// generator fell behind, is reported with "correct": false.
type ledger struct {
	attempted, failed int64
	invalid           []string
	firstErr          error
}

// unit records one attempted unit of work; err marks it failed.
func (l *ledger) unit(err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
			fmt.Printf("first failure: %v\n", err)
		}
	}
}

// units records n attempted units that share one outcome.
func (l *ledger) units(n int, err error) {
	for i := 0; i < n; i++ {
		l.unit(err)
	}
}

// markInvalid records a reason the whole run is not a valid measurement.
func (l *ledger) markInvalid(format string, args ...any) {
	l.invalid = append(l.invalid, fmt.Sprintf(format, args...))
}

func (l *ledger) failFrac() float64 {
	if l.attempted == 0 {
		return 1
	}
	return float64(l.failed) / float64(l.attempted)
}

// valid reports whether every attempted unit succeeded and nothing
// invalidated the run.
func (l *ledger) valid() bool { return l.attempted > 0 && l.failed == 0 && len(l.invalid) == 0 }

// errTimeout marks a unit that did not finish within its deadline.
var errTimeout = errors.New("timed out")

// sameBits checks a log likelihood for bit-identity with its reference.
func sameBits(what string, got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) || math.IsNaN(got) {
		return fmt.Errorf("%s: log likelihood %v is not bit-identical to reference %v", what, got, want)
	}
	return nil
}

// within checks a log likelihood against an independent reference to a
// relative tolerance.
func within(what string, got, want, rel float64) error {
	if math.IsNaN(got) || math.Abs(got-want) > rel*math.Abs(want) {
		return fmt.Errorf("%s: log likelihood %v differs from reference %v by more than %g relative", what, got, want, rel)
	}
	return nil
}

// checkResponse validates one served response: status 200, the request id
// echoed, and a log likelihood bit-identical to the dedicated-instance
// reference. A 429 or any other status is a failed unit.
func checkResponse(status int, sentID, gotID string, got, want float64) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d", status)
	}
	if gotID != sentID {
		return fmt.Errorf("request id %q echoed as %q", sentID, gotID)
	}
	return sameBits("served "+sentID, got, want)
}
