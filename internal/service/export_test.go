package service

import (
	"errors"
	"testing"
)

// HoldFlight leads the flight a ranking of query would join right now and
// holds it open until release: every identical rank — single, batched, or
// arriving through a cluster shard — waits on it, holding whatever
// admission slot its request took.
func (s *Service) HoldFlight(t *testing.T, query, alg string, k int) (release func()) {
	finish := leadFlight(t, s, flightKey(s, query, alg, k))
	return func() { finish(nil, errors.New("held flight released")) }
}
