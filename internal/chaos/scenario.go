package chaos

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// ActionKind names one kind of scripted fault.
type ActionKind string

// The scripted fault vocabulary. Actions target decode replicas by
// ordinal (Target); -1 targets every link. How an action lands depends
// on the harness: an in-process suite can kill a decode node outright,
// while a router-side injector models the same failure as a partition
// of that replica's link.
const (
	// ActKillDecode kills the target decode replica (or partitions its
	// link when the harness cannot reach the process).
	ActKillDecode ActionKind = "kill-decode"
	// ActDegradeLink applies the event's Plan (latency / bandwidth /
	// stall) to the target link.
	ActDegradeLink ActionKind = "degrade-link"
	// ActPartition refuses dials to the target and severs its live
	// connections.
	ActPartition ActionKind = "partition"
	// ActCorruptFrame flips bits in the target link's byte stream (the
	// event's Plan carries the corruption cadence).
	ActCorruptFrame ActionKind = "corrupt-frame"
	// ActHeal clears every fault.
	ActHeal ActionKind = "heal"
)

// Action is one scripted fault application.
type Action struct {
	Kind ActionKind
	// Target is the decode-replica ordinal the action aims at; -1 means
	// every link.
	Target int
	// Plan parameterizes degrade/corrupt kinds.
	Plan Plan
}

// Event schedules an action at an offset from the script's start.
type Event struct {
	At     time.Duration
	Action Action
}

// Script is a named, reproducible fault timeline.
type Script struct {
	Name        string
	Description string
	Events      []Event
}

// Stretch scales every event offset by factor (for slower deployments
// than the in-process test harness).
func (s Script) Stretch(factor float64) Script {
	if factor <= 0 || factor == 1 {
		return s
	}
	out := s
	out.Events = make([]Event, len(s.Events))
	for i, e := range s.Events {
		e.At = time.Duration(float64(e.At) * factor)
		out.Events[i] = e
	}
	return out
}

// Play executes the script: it sleeps to each event's offset and calls
// apply. It returns when every event has fired or ctx is cancelled.
func (s Script) Play(ctx context.Context, apply func(Action)) error {
	start := time.Now()
	events := append([]Event(nil), s.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for _, e := range events {
		if d := e.At - time.Since(start); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		apply(e.Action)
	}
	return nil
}

// scripts is the registry of named fault timelines. Offsets are sized
// for the in-process loopback harness (requests complete in tens of
// milliseconds); Stretch them for real deployments.
var scripts = map[string]Script{
	"kill-decode": {
		Name:        "kill-decode",
		Description: "kill decode replica 0 mid-stream, heal later",
		Events: []Event{
			{At: 25 * time.Millisecond, Action: Action{Kind: ActKillDecode, Target: 0}},
			{At: 600 * time.Millisecond, Action: Action{Kind: ActHeal}},
		},
	},
	"degrade-kv-link": {
		Name:        "degrade-kv-link",
		Description: "add latency and throttle bandwidth on every KV link, then heal",
		Events: []Event{
			{At: 0, Action: Action{Kind: ActDegradeLink, Target: -1,
				Plan: Plan{Latency: 2 * time.Millisecond, BandwidthBps: 8 << 20}}},
			{At: 500 * time.Millisecond, Action: Action{Kind: ActHeal}},
		},
	},
	"partition-heal": {
		Name:        "partition-heal",
		Description: "partition decode replica 0, heal after a cooldown",
		Events: []Event{
			{At: 20 * time.Millisecond, Action: Action{Kind: ActPartition, Target: 0}},
			{At: 400 * time.Millisecond, Action: Action{Kind: ActHeal}},
		},
	},
	"corrupt-frame": {
		Name:        "corrupt-frame",
		Description: "flip bits on decode replica 0's link (CRCs catch them), then heal",
		Events: []Event{
			{At: 0, Action: Action{Kind: ActCorruptFrame, Target: 0,
				Plan: Plan{CorruptEvery: 4096}}},
			{At: 400 * time.Millisecond, Action: Action{Kind: ActHeal}},
		},
	},
}

// Scripts lists the registered script names, sorted.
func Scripts() []string {
	names := make([]string, 0, len(scripts))
	for n := range scripts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ScriptNamed resolves a script by name.
func ScriptNamed(name string) (Script, error) {
	s, ok := scripts[name]
	if !ok {
		return Script{}, fmt.Errorf("chaos: unknown script %q (valid: %v)", name, Scripts())
	}
	return s, nil
}
