package dist

import (
	"errors"
	"net/http"
)

// fault is classify's verdict on a failed shard attempt: who is to
// blame, and so what the failure costs.
type fault int

const (
	// shardFault: the failure may follow the shard to any member — a
	// malformed or misnumbered result line, a busy or unexpected HTTP
	// answer. It costs the shard one of its MaxAttempts.
	shardFault fault = iota
	// memberFault: the member failed, not the shard — it is unreachable,
	// answered 5xx or an empty body, cut its stream, or went silent.
	// workerLoop settles it with an immediate probe (memberAtFault).
	memberFault
	// permanentFault: no retry can succeed (the worker rejected the
	// submission itself); the sweep fails at once.
	permanentFault
)

func (f fault) String() string {
	switch f {
	case memberFault:
		return "member fault"
	case permanentFault:
		return "permanent"
	}
	return "shard fault"
}

// permanentError marks a request that could not even be built.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// statusError is a worker's unexpected HTTP answer to a submit or a
// result-stream attach.
type statusError struct {
	submit bool
	code   int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// transportError is a failure below HTTP semantics: the connection
// failed or was cut, the stream stalled, or the answer was empty or
// unreadable.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// classify maps a shard attempt's error to who is at fault. A 4xx
// answer to a submit (429 aside) means the request itself is bad; a 4xx
// on attach means the worker lost the job, which a resubmit repairs.
func classify(err error) fault {
	var perm *permanentError
	var status *statusError
	var transport *transportError
	switch {
	case errors.As(err, &perm):
		return permanentFault
	case errors.As(err, &status):
		switch {
		case status.code >= 500:
			return memberFault
		case status.submit && status.code >= 400 && status.code != http.StatusTooManyRequests:
			return permanentFault
		}
	case errors.As(err, &transport):
		return memberFault
	}
	return shardFault
}
