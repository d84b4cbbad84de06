package lbs

import (
	"context"
	"sync/atomic"
)

// Meter owns one logical cost model: a hard query budget and the
// monotone query counter the paper's cost metric reads. Every front
// that meters queries shares this exact accounting — the in-process
// Service, the federation Router, the live mutable overlay and each
// job's ScopedQuerier all delegate to a Meter — so "one answered point
// costs one unit" means the same thing at every layer.
//
// A Meter is safe for concurrent use.
type Meter struct {
	budget  int64
	queries atomic.Int64
}

// NewMeter builds a meter with the given budget (≤ 0 = unlimited).
func NewMeter(budget int64) *Meter {
	return &Meter{budget: budget}
}

// ChargeN checks for cancellation and atomically reserves up to n
// units of budget. It returns how many units were granted; when the
// budget covers only part of the request (or none), err is
// ErrBudgetExhausted.
//
// The reservation is a CAS loop rather than add-then-rollback, so the
// query counter never transiently exceeds the budget: concurrent
// readers of Count (core.Run's stop checks) always observe a value
// ≤ the budget.
func (m *Meter) ChargeN(ctx context.Context, n int64) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, nil
	}
	if m.budget <= 0 {
		m.queries.Add(n)
		return n, nil
	}
	for {
		cur := m.queries.Load()
		rem := m.budget - cur
		if rem <= 0 {
			return 0, ErrBudgetExhausted
		}
		granted := min(n, rem)
		if m.queries.CompareAndSwap(cur, cur+granted) {
			if granted < n {
				return granted, ErrBudgetExhausted
			}
			return granted, nil
		}
	}
}

// Charge reserves one unit (see ChargeN).
func (m *Meter) Charge(ctx context.Context) error {
	_, err := m.ChargeN(ctx, 1)
	return err
}

// Refund hands back units whose queries a downstream failure left
// unanswered, so transient errors never leak budget.
func (m *Meter) Refund(n int64) {
	if n > 0 {
		m.queries.Add(-n)
	}
}

// Count returns the number of units charged so far.
func (m *Meter) Count() int64 { return m.queries.Load() }

// Remaining returns how many units may still be charged, or −1 for
// unlimited.
func (m *Meter) Remaining() int64 {
	if m.budget <= 0 {
		return -1
	}
	rem := m.budget - m.queries.Load()
	if rem < 0 {
		return 0
	}
	return rem
}
