package client

import (
	"context"

	"ccpfs/internal/dlm"
	"ccpfs/internal/rpc"
	"ccpfs/internal/transport"
	"ccpfs/internal/wire"
)

// This file wires the client into the lock handoff fast path
// (DESIGN.md §13). The client is both ends of the transfer: as the
// revoked holder it sends MHandoff to the stamped next owner over a
// direct peer connection, and as the next owner it accepts MHandoff —
// from a peer, or from the server (the activation after a fallback
// release or reclaim) — and forwards it to the lock client.

// PeerDialer resolves another client's lock client ID to a started RPC
// endpoint on that client's peer listener. It is called at most once
// per peer; the endpoint is cached until it errors.
type PeerDialer func(peer dlm.ClientID) (*rpc.Endpoint, error)

// ServePeers accepts client-to-client handoff connections on l. Every
// inbound endpoint only answers MHandoff; the accept loop runs until l
// closes (Close/Shutdown close it with the other connections).
func (c *Client) ServePeers(l transport.Listener) {
	c.peerSrv = rpc.NewServer(l, rpc.Options{Clock: c.clk}, func(ep *rpc.Endpoint) {
		ep.Handle(wire.MHandoff, c.handleHandoff)
		ep.Handle(wire.MLeasePropagate, c.handleLeasePropagate)
	})
	c.clk.Go(c.peerSrv.Serve)
}

// SetPeerDialer installs the peer address book and enables the
// client-to-client transfer path. Without it, stamped revocations
// still work — the cancel path falls back to releasing through the
// server, which activates the delegation itself.
func (c *Client) SetPeerDialer(d PeerDialer) {
	c.peerMu.Lock()
	c.peerDial = d
	if c.peerEps == nil {
		c.peerEps = make(map[dlm.ClientID]*rpc.Endpoint)
	}
	c.peerMu.Unlock()
	if d != nil {
		c.lc.SetPeerSender(c)
	} else {
		c.lc.SetPeerSender(nil)
	}
}

// handleHandoff processes an inbound transfer: the named lock is now
// this client's — a single lock, one part of a gather, or (with a
// broadcast payload) the lead lease of a cohort to propagate.
// Duplicates (peer transfer racing the server's activation) are
// dropped inside the lock client.
func (c *Client) handleHandoff(_ context.Context, p []byte) (wire.Msg, error) {
	var req wire.HandoffRequest
	if err := wire.Unmarshal(p, &req); err != nil {
		return nil, err
	}
	acks := make([]dlm.LockID, 0, len(req.Acks))
	for _, a := range req.Acks {
		acks = append(acks, dlm.LockID(a))
	}
	c.lc.OnHandoffMsg(dlm.ResourceID(req.Resource), dlm.LockID(req.LockID),
		req.Final, acks, dlm.BroadcastFromWire(req.Broadcast))
	return &wire.Ack{}, nil
}

// handleAckSolicit processes the server's request to confirm a
// delegated lock without delay; the lock client answers with an
// ordinary MHandoffAck, now or when the transfer installs.
func (c *Client) handleAckSolicit(_ context.Context, p []byte) (wire.Msg, error) {
	var req wire.AckSolicit
	if err := wire.Unmarshal(p, &req); err != nil {
		return nil, err
	}
	c.lc.OnAckSolicit(dlm.ResourceID(req.Resource), dlm.LockID(req.LockID))
	return &wire.Ack{}, nil
}

// handleLeasePropagate receives a propagation-tree subtree: the first
// lease is this client's own, the rest is forwarded down the tree.
func (c *Client) handleLeasePropagate(_ context.Context, p []byte) (wire.Msg, error) {
	var req wire.LeasePropagate
	if err := wire.Unmarshal(p, &req); err != nil {
		return nil, err
	}
	grant := dlm.BroadcastFromWire(&wire.BroadcastGrant{
		Mode: req.Mode, Range: req.Range, Fanout: req.Fanout, Leases: req.Leases,
	})
	c.lc.OnLeasePropagate(dlm.ResourceID(req.Resource), grant)
	return &wire.Ack{}, nil
}

// SendHandoff implements dlm.PeerSender: deliver "this lock is yours"
// to the stamped next owner, with piggybacked delegation acks and, for
// a broadcast, the cohort payload. An error (no dialer, dead peer)
// makes the lock client fall back to releasing through the server.
func (c *Client) SendHandoff(ctx context.Context, peer dlm.ClientID, res dlm.ResourceID, id dlm.LockID, acks []dlm.LockID, bcast *dlm.BroadcastStamp) error {
	ep, err := c.peerEndpoint(peer)
	if err != nil {
		return err
	}
	req := &wire.HandoffRequest{Resource: uint64(res), LockID: uint64(id), Broadcast: dlm.BroadcastToWire(bcast)}
	for _, a := range acks {
		req.Acks = append(req.Acks, uint64(a))
	}
	err = ep.Call(ctx, wire.MHandoff, req, nil)
	if err != nil {
		c.dropPeer(peer, ep)
	}
	return err
}

// SendLease implements dlm.PeerSender: ship a cohort subtree to the
// peer owning its first lease.
func (c *Client) SendLease(ctx context.Context, peer dlm.ClientID, res dlm.ResourceID, grant *dlm.BroadcastStamp) error {
	ep, err := c.peerEndpoint(peer)
	if err != nil {
		return err
	}
	w := dlm.BroadcastToWire(grant)
	req := &wire.LeasePropagate{
		Resource: uint64(res), Mode: w.Mode, Range: w.Range, Fanout: w.Fanout, Leases: w.Leases,
	}
	err = ep.Call(ctx, wire.MLeasePropagate, req, nil)
	if err != nil {
		c.dropPeer(peer, ep)
	}
	return err
}

// peerEndpoint returns the cached endpoint for a peer, dialing on the
// first transfer to it.
func (c *Client) peerEndpoint(peer dlm.ClientID) (*rpc.Endpoint, error) {
	c.peerMu.Lock()
	defer c.peerMu.Unlock()
	if ep, ok := c.peerEps[peer]; ok {
		return ep, nil
	}
	if c.peerDial == nil {
		return nil, wire.Errorf(wire.CodeInvalid, "client: no peer dialer")
	}
	ep, err := c.peerDial(peer)
	if err != nil {
		return nil, err
	}
	c.peerEps[peer] = ep
	return ep, nil
}

// dropPeer discards a failed peer endpoint so the next transfer to
// that peer redials.
func (c *Client) dropPeer(peer dlm.ClientID, ep *rpc.Endpoint) {
	c.peerMu.Lock()
	if c.peerEps[peer] == ep {
		delete(c.peerEps, peer)
	}
	c.peerMu.Unlock()
	ep.Close()
}

// closePeers tears down the peer transport with the other connections.
func (c *Client) closePeers() {
	if c.peerSrv != nil {
		c.peerSrv.Close()
	}
	c.peerMu.Lock()
	eps := c.peerEps
	c.peerEps = nil
	c.peerDial = nil
	c.peerMu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
}
