package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"fbdetect/internal/resilience"
)

// Client talks to a control-plane server as one tenant. It exists for
// the async-operation contract: submit with POST /operations, then poll
// the returned Location honoring the server's Retry-After hints.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// Key is the tenant API key (or the admin key for admin calls).
	Key string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
	// Clock paces polling; tests inject a FakeClock. Default real time.
	Clock resilience.Clock
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) clock() resilience.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return resilience.RealClock()
}

// do issues one authenticated JSON request.
func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.Key)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.httpClient().Do(req)
}

// readError drains resp into a descriptive error.
func readError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
}

// SubmitOperation POSTs an operation and returns the accepted Operation
// plus the Location to poll.
func (c *Client) SubmitOperation(ctx context.Context, kind string, params any) (*Operation, string, error) {
	var raw json.RawMessage
	if params != nil {
		p, err := json.Marshal(params)
		if err != nil {
			return nil, "", err
		}
		raw = p
	}
	resp, err := c.do(ctx, http.MethodPost, "/operations", opParams{Kind: kind, Params: raw})
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, "", readError(resp)
	}
	loc := resp.Header.Get("Location")
	if loc == "" {
		return nil, "", fmt.Errorf("202 without Location header")
	}
	var op Operation
	if err := json.NewDecoder(resp.Body).Decode(&op); err != nil {
		return nil, "", err
	}
	return &op, loc, nil
}

// GetOperation fetches one operation by its poll location. For a
// non-terminal operation the error is nil and retryAfter carries the
// server's Retry-After hint (defaulted to a second if absent).
func (c *Client) GetOperation(ctx context.Context, location string) (op *Operation, retryAfter time.Duration, err error) {
	resp, err := c.do(ctx, http.MethodGet, location, nil)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, readError(resp)
	}
	op = new(Operation)
	if err := json.NewDecoder(resp.Body).Decode(op); err != nil {
		return nil, 0, err
	}
	retryAfter, ok := resilience.ParseRetryAfter(resp.Header)
	if !ok {
		retryAfter = time.Second
	}
	return op, retryAfter, nil
}

// WaitOperation polls location until the operation is terminal, sleeping
// the server's Retry-After between polls (on the injected clock), and
// returns the terminal operation. An operation that ends failed is
// returned along with a Permanent error — retrying the poll cannot fix
// a failed operation.
func (c *Client) WaitOperation(ctx context.Context, location string) (*Operation, error) {
	clk := c.clock()
	for {
		op, retryAfter, err := c.GetOperation(ctx, location)
		if err != nil {
			return nil, err
		}
		if op.Status.Terminal() {
			if op.Status == OpFailed {
				return op, resilience.Permanent(fmt.Errorf("operation %s failed: %s", op.ID, op.Error))
			}
			return op, nil
		}
		if err := clk.Sleep(ctx, retryAfter); err != nil {
			return nil, resilience.RetryAfter(err, retryAfter)
		}
	}
}

// RegisterTenant registers a tenant through the admin API (the client's
// Key must be the admin key) and returns it, API key included.
func (c *Client) RegisterTenant(ctx context.Context, name string, q Quotas) (Tenant, error) {
	resp, err := c.do(ctx, http.MethodPost, "/admin/tenants", registerTenantRequest{Name: name, Quotas: q})
	if err != nil {
		return Tenant{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return Tenant{}, readError(resp)
	}
	var t Tenant
	if err := json.NewDecoder(resp.Body).Decode(&t); err != nil {
		return Tenant{}, err
	}
	return t, nil
}
