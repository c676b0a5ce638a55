//go:build !linux

package bench

import "errors"

// idleOn is Linux's: elsewhere nothing keeps the CPUs awake.
func idleOn(cpu int) error { return errors.New("bench: no idle scheduling class") }
