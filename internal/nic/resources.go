package nic

import (
	"errors"

	"repro/internal/sim"
)

// This file is the NIC's bounded-resource model. The paper's trigger list
// is explicitly a small NIC structure ("the trigger list can be held in a
// small amount of NIC memory"); real Portals NICs likewise bound their
// event and command queues. config.ResourceConfig makes each capacity
// explicit, and this layer enforces it with typed errors, counted
// drops, and high-water accounting — instead of silent unbounded growth.
// Every check is pay-for-use: a zero-valued ResourceConfig leaves the data
// path bit-for-bit identical to the unbounded seed behavior.

var (
	// ErrTriggerListFull reports a registration rejected because every
	// trigger-list entry is active. The caller may retry after one of its
	// outstanding entries fires (see core.Host.TrigPutPressure).
	ErrTriggerListFull = errors.New("trigger list full")
	// ErrCmdQueueFull reports a non-blocking command post that found the
	// bounded host command queue full.
	ErrCmdQueueFull = errors.New("command queue full")
	// ErrTagBusy reports a registration against a tag that already has a
	// pending (unfired) operation.
	ErrTagBusy = errors.New("tag already has a pending operation")
)

// capTriggers returns the trigger-list capacity in force: the resource
// model's override when set, else the paper's MaxTriggerEntries.
func (n *NIC) capTriggers() int {
	if c := n.cfg.Resources.TriggerEntries; c > 0 {
		return c
	}
	return n.cfg.MaxTriggerEntries
}

// capPlaceholders returns the relaxed-sync placeholder budget; 0 means
// placeholders compete only for the shared trigger-list capacity.
func (n *NIC) capPlaceholders() int { return n.cfg.Resources.PlaceholderEntries }

// activePlaceholders counts unfired entries still waiting for their host
// registration (relaxed-sync placeholders).
func (n *NIC) activePlaceholders() int {
	c := 0
	for _, e := range n.entries {
		if !e.fired && !e.hasOp {
			c++
		}
	}
	return c
}

// noteTriggerWater refreshes the trigger-list high-water marks after an
// entry allocation.
func (n *NIC) noteTriggerWater() {
	if hw := int64(n.activeEntries()); hw > n.stats.TriggerListHighWater {
		n.stats.TriggerListHighWater = hw
	}
	if hw := int64(n.activePlaceholders()); hw > n.stats.PlaceholderHighWater {
		n.stats.PlaceholderHighWater = hw
	}
}

// pushCmd puts a command on the NIC execution queue, starting the idle
// executor with a step at the current time, and tracks the queue's
// high-water mark.
func (n *NIC) pushCmd(c *Command) {
	n.cmdQ.Push(c)
	if !n.cmdBusy {
		n.cmdBusy, n.cmdAt = true, cmdAtStart
		n.eng.AfterLane(0, n.lane, n.cmdStepFn)
	}
	if hw := int64(n.cmdQ.Len()); hw > n.stats.CmdQueueHighWater {
		n.stats.CmdQueueHighWater = hw
	}
}

// enqueueCmd admits a command from a source that cannot block (trigger
// fires, doorbell flights, NIC-internal replies). With a bounded command
// queue, overflow defers the command to a pending list drained in FIFO
// order as the executor frees slots — hardware would leave these descriptors
// in host memory until the queue advances; nothing is dropped.
func (n *NIC) enqueueCmd(c *Command) {
	if d := n.cfg.Resources.CmdQueueDepth; d > 0 && (len(n.cmdPending) > 0 || n.cmdQ.Len() >= d) {
		n.cmdPending = append(n.cmdPending, c)
		n.stats.CmdDeferred++
		return
	}
	n.pushCmd(c)
}

// admitPending moves deferred commands onto the queue while slots are free,
// then wakes blocked posters (PostCommand) if space remains. Called by the
// command executor after each pop.
func (n *NIC) admitPending() {
	d := n.cfg.Resources.CmdQueueDepth
	if d == 0 {
		return
	}
	for len(n.cmdPending) > 0 && n.cmdQ.Len() < d {
		c := n.cmdPending[0]
		n.cmdPending[0] = nil
		n.cmdPending = n.cmdPending[1:]
		n.pushCmd(c)
	}
	if len(n.cmdPending) == 0 && n.cmdQ.Len() < d && n.cmdSlots.Waiters() > 0 {
		n.cmdSlots.Broadcast()
	}
}

// StarvedTriggers reports every trigger-list entry that never fired — the
// NIC-side evidence the sim watchdog folds into a hang diagnosis. Entries
// with a registered op report their threshold; relaxed-sync placeholders
// the host never backed report Registered=false.
func (n *NIC) StarvedTriggers() []sim.StarvedTrigger {
	n.catchUp()
	var out []sim.StarvedTrigger
	for _, e := range n.entries {
		if e.fired {
			continue
		}
		out = append(out, sim.StarvedTrigger{
			Node:       int(n.id),
			Tag:        e.tag,
			Counter:    e.counter,
			Threshold:  e.threshold,
			Registered: e.hasOp,
		})
	}
	return out
}
