package server

// Fleet routing. A wmxmld fleet is N stateless nodes over one shared
// registry; what distinguishes the nodes is cache warmth. Consistent
// hashing assigns every owner a home node, and a request landing
// anywhere else is transparently proxied home, so each owner's parsed
// suspect documents and compiled runtime warm exactly one node's
// memory instead of N copies competing for N small caches. Clients
// need zero routing knowledge — any node is a correct entry point —
// but a client that builds the same ring can hit home nodes directly
// and skip the extra hop.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"

	"wmxml/internal/cluster"
)

const (
	// fleetHopHeader marks a request already proxied once. A node
	// receiving it serves locally no matter what its ring says, so ring
	// disagreement during a rolling config change degrades to one extra
	// hop, never a loop.
	fleetHopHeader = "X-Wmxml-Fleet-Hop"
	// fleetNodeHeader names the node that actually served a response —
	// the observable tests and operators use to see routing work.
	fleetNodeHeader = "X-Wmxml-Node"
)

// ownerExtractor pulls the routing key (the owner id) out of a request
// without consuming it. Empty means "no owner; serve locally".
type ownerExtractor func(r *http.Request) string

func ownerFromQuery(r *http.Request) string { return r.URL.Query().Get("owner") }

func ownerFromPath(r *http.Request) string { return r.PathValue("id") }

// ownerFromBody peeks the owner id out of a JSON body (POST /v1/owners
// carries it nowhere else), then restores the body for the handler or
// proxy. Reading is capped one byte past the server limit: an
// over-limit body stays over-limit after restore and is rejected
// downstream exactly as it would have been.
func (s *Server) ownerFromBody(r *http.Request) string {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxBodyBytes+1))
	if err != nil {
		return ""
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	var peek struct {
		ID string `json:"id"`
	}
	json.Unmarshal(body, &peek)
	return peek.ID
}

// routed wraps an owner-scoped handler with home-node routing. With no
// fleet configured it is the identity — the single-node hot path gains
// zero work.
func (s *Server) routed(owner ownerExtractor, h handler) handler {
	if s.fleet == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) error {
		if r.Header.Get(fleetHopHeader) == "" {
			if id := owner(r); id != "" {
				if node := s.fleet.Node(id); node != s.opts.FleetSelf {
					s.met.fleetProxied.Inc()
					s.proxies[node].ServeHTTP(w, r)
					return nil
				}
			}
		}
		w.Header().Set(fleetNodeHeader, s.opts.FleetSelf)
		return h(w, r)
	}
}

// buildFleet validates the fleet options and compiles the ring and the
// per-peer reverse proxies. Called from New; no-op below two nodes.
func (s *Server) buildFleet() error {
	if len(s.opts.FleetNodes) < 2 {
		return nil
	}
	self := false
	for _, n := range s.opts.FleetNodes {
		if n == s.opts.FleetSelf {
			self = true
			break
		}
	}
	if !self {
		return fmt.Errorf("server: Options.FleetSelf %q is not one of FleetNodes %v", s.opts.FleetSelf, s.opts.FleetNodes)
	}
	ring, err := cluster.New(s.opts.FleetNodes)
	if err != nil {
		return fmt.Errorf("server: fleet: %w", err)
	}
	s.fleet = ring
	s.proxies = make(map[string]*httputil.ReverseProxy, len(s.opts.FleetNodes)-1)
	for _, n := range s.opts.FleetNodes {
		if n == s.opts.FleetSelf {
			continue
		}
		p, err := s.newFleetProxy(n)
		if err != nil {
			return err
		}
		s.proxies[n] = p
	}
	return nil
}

// newFleetProxy builds the reverse proxy for one peer. FlushInterval -1
// keeps the streaming endpoints (mode=stream) streaming through the
// hop; the hop header is stamped on the outbound clone, never on the
// caller's request. A dead peer answers 502 in the standard error
// envelope: the peer's address and dial error go to the log only.
func (s *Server) newFleetProxy(node string) (*httputil.ReverseProxy, error) {
	u, err := url.Parse(node)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("server: fleet node %q is not an http(s) URL", node)
	}
	return &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(u)
			pr.Out.Host = u.Host
			pr.Out.Header.Set(fleetHopHeader, s.opts.FleetSelf)
		},
		FlushInterval: -1,
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			s.writeErr(w, r, errf(http.StatusBadGateway, "fleet peer %s unreachable: %w", node, err))
		},
	}, nil
}
