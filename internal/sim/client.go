package sim

import (
	"bytes"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"
)

// This file is the client half of the coordinator protocol. Every client
// call — HTTPSink posts, HTTPCache reads and write-backs, ClaimCells and
// RegisterRun — resolves its endpoint through apiEndpoint and sends its
// request through coordClient.do, so all of them accept the same URL
// spellings and run names and send the same credentials.

// apiEndpoint resolves a coordinator base URL plus an optional run name to
// one schema-versioned resource endpoint. With no run, the resource hangs
// off the base's /v1 root (the default run): a base without a /v1 path
// gets "/v1/<resource>" appended, and a base that names /v1 or anything
// under it (".../v1/cells") is cut back to its /v1 root first, so a lease
// never goes to a cells URL. With a run, the base must be bare (the run
// name picks the /v2 path: "/v2/runs/{run}/<resource>", or the run itself
// for an empty resource). Every coordinator client resolves through it,
// so all accept the same -sink/-cache/-register URL spellings.
func apiEndpoint(base, run, resource string) (string, error) {
	u, err := url.Parse(base)
	if err != nil {
		return "", fmt.Errorf("sim: sink URL %q: %w", base, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("sim: sink URL %q: want http:// or https://", base)
	}
	if u.Host == "" {
		return "", fmt.Errorf("sim: sink URL %q: missing host", base)
	}
	trimmed := strings.TrimRight(base, "/")
	if run != "" {
		if u.Path != "" && u.Path != "/" {
			return "", fmt.Errorf("sim: sink URL %q: a named run picks the API path itself; give a bare coordinator URL with -run %s", base, run)
		}
		if !runNameOK(run) {
			return "", fmt.Errorf("sim: invalid run name %q (want [A-Za-z0-9._-]{1,128})", run)
		}
		if resource == "" {
			return trimmed + "/v2/runs/" + url.PathEscape(run), nil
		}
		return trimmed + "/v2/runs/" + url.PathEscape(run) + "/" + resource, nil
	}
	if i := strings.Index(strings.TrimRight(u.Path, "/")+"/", "/v1/"); i >= 0 {
		u.Path, u.RawPath = u.Path[:i]+"/v1/"+resource, ""
		return u.String(), nil
	}
	return trimmed + "/v1/" + resource, nil
}

// coordClient is what every coordinator client call sends with its
// requests, and its do is the one path by which any of them makes one.
type coordClient struct {
	client *http.Client // nil: defaultClient
	token  string       // bearer token ("" sends none)
	worker string       // X-Bml-Worker identity ("" sends none)
}

// defaultClient serves calls made with no client of their own.
var defaultClient = &http.Client{Timeout: 30 * time.Second}

// reply is one coordinator response: its status and its body, read up to
// the call's cap.
type reply struct {
	code   int
	status string
	body   []byte
}

// String renders the reply for error messages.
func (r reply) String() string { return r.status + ": " + strings.TrimSpace(string(r.body)) }

// do sends one request with the option set's bearer token and worker
// identity and reads at most limit bytes of the response body. A network
// error comes back as is, which callers may retry; a request that cannot
// be built is a sinkPermanentError. Sorting the status is the caller's.
func (c *coordClient) do(method, endpoint, contentType string, body []byte, limit int64) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, endpoint, rd)
	if err != nil {
		return reply{}, &sinkPermanentError{msg: err.Error()}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.worker != "" {
		req.Header.Set(WorkerHeader, c.worker)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	client := c.client
	if client == nil {
		client = defaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, limit))
	return reply{code: resp.StatusCode, status: resp.Status, body: raw}, nil
}

// HTTPClientWithCA builds an HTTP client (default sink/cache timeout) that
// trusts the PEM certificates in caFile in addition to nothing else — the
// client half of a TLS coordinator (-tls-cert/-tls-key) using a
// self-signed or private-CA certificate, which is the normal deployment
// for an internal fleet service. An empty path returns a plain client.
func HTTPClientWithCA(caFile string) (*http.Client, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	if caFile == "" {
		return client, nil
	}
	pem, err := os.ReadFile(caFile)
	if err != nil {
		return nil, fmt.Errorf("sim: TLS CA: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("sim: TLS CA %s: no PEM certificates found", caFile)
	}
	client.Transport = &http.Transport{TLSClientConfig: &tls.Config{RootCAs: pool}}
	return client, nil
}

// ClaimCells is the client half of the lease protocol: one POST to
// <base>/v2/runs/{run}/lease (<base>/v1/lease, the default run, when run
// is empty) claiming up to max cells for worker. The worker must then
// stream the cells' records with the same identity (HTTPSink
// WithSinkWorker) so its posts renew the lease, and poll again
// when the response carries no cells but pending > 0 — cells leased to a
// stalled worker become claimable once their TTL passes. A nil client is
// the sink's default (30 s timeout).
func ClaimCells(client *http.Client, base, run, token, worker string, max int) (LeaseResponse, error) {
	var out LeaseResponse
	endpoint, err := apiEndpoint(base, run, "lease")
	if err != nil {
		return out, err
	}
	body, err := json.Marshal(LeaseRequest{Worker: worker, Max: max})
	if err != nil {
		return out, err
	}
	c := coordClient{client: client, token: token, worker: worker}
	rep, err := c.do(http.MethodPost, endpoint, "application/json", body, 64<<20)
	if err != nil {
		return out, fmt.Errorf("sim: lease %s: %w", endpoint, err)
	}
	if rep.code != http.StatusOK {
		return out, fmt.Errorf("sim: lease %s: coordinator returned %s", endpoint, rep)
	}
	// Lax like the sink's ack: every claim pays this decode.
	if err := json.Unmarshal(rep.body, &out); err != nil {
		return out, fmt.Errorf("sim: lease %s: response unparsable: %v", endpoint, err)
	}
	return out, nil
}

// RegisterRun is the client half of run creation: one PUT of spec to
// <base>/v2/runs/{run}, with the base and run name checked as a sink's
// are. It returns the coordinator's status of the run and whether this
// call created it (201) rather than finding it registered with the same
// cells (200). The response decodes strictly: an unknown field or
// trailing data means client and coordinator disagree on the protocol.
func RegisterRun(client *http.Client, base, run, token string, spec RunSpec) (RunStatus, bool, error) {
	var rs RunStatus
	if run == "" {
		return rs, false, errors.New("sim: registering a run needs its name")
	}
	endpoint, err := apiEndpoint(base, run, "")
	if err != nil {
		return rs, false, err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return rs, false, err
	}
	c := coordClient{client: client, token: token}
	rep, err := c.do(http.MethodPut, endpoint, "application/json", body, 64<<10)
	if err != nil {
		return rs, false, fmt.Errorf("sim: register %s: %w", endpoint, err)
	}
	if rep.code != http.StatusOK && rep.code != http.StatusCreated {
		return rs, false, fmt.Errorf("sim: coordinator rejected run %q: %s", run, rep)
	}
	if err := strictJSON(bytes.NewReader(rep.body), &rs); err != nil {
		return rs, false, fmt.Errorf("sim: register %s: response unparsable: %v", endpoint, err)
	}
	return rs, rep.code == http.StatusCreated, nil
}
