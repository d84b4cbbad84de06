package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// startupTimeout bounds how long a child may take to start serving.
const startupTimeout = 60 * time.Second

// proc is one running child process: a server (base is its URL) or
// the keep-awake spinner.
type proc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader // the child's stdout after its first line
	base  string
}

// startProc starts this binary with env added and returns it with the
// first line it prints, which announces that it is ready. The child
// exits when its stdin closes (stop).
func startProc(ctx context.Context, env string) (*proc, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), env)
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, "", err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", fmt.Errorf("start child: %w", err)
	}
	p := &proc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	ctx, cancel := context.WithTimeout(ctx, startupTimeout)
	defer cancel()
	ready := make(chan string, 1)
	go func() {
		line, _ := p.out.ReadString('\n')
		ready <- strings.TrimSpace(line)
	}()
	select {
	case line := <-ready:
		return p, line, nil
	case <-ctx.Done():
		p.stop()
		return nil, "", fmt.Errorf("child did not start: %w", ctx.Err())
	}
}

// envSpin turns a process into the keep-awake spinner (see spin).
const envSpin = "BENCH_SPIN"

// startKeepAwake starts the keep-awake child and returns it with the
// number of CPUs it keeps out of idle, and a meter reading its
// reference costs (nil when it holds no CPU).
func startKeepAwake(ctx context.Context) (*proc, int, *refMeter, error) {
	p, line, err := startProc(ctx, envSpin+"=1")
	if err != nil {
		return nil, 0, nil, err
	}
	n, _ := strconv.Atoi(strings.TrimPrefix(line, "spinning "))
	if n == 0 {
		return p, 0, nil, nil
	}
	return p, n, &refMeter{p: p}, nil
}

// startChild starts a child serving cfg and returns it once GET
// /v1/meta answers, together with the time that took: the workload's
// set-up time.
func startChild(ctx context.Context, cfg stackConfig) (*proc, time.Duration, error) {
	spec, err := json.Marshal(cfg)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	p, line, err := startProc(ctx, envServe+"="+string(spec))
	if err != nil {
		return nil, 0, err
	}
	p.base = "http://" + strings.TrimPrefix(line, "listening ")
	ctx, cancel := context.WithTimeout(ctx, startupTimeout)
	defer cancel()
	if err := p.awaitMeta(ctx); err != nil {
		p.stop()
		return nil, 0, err
	}
	return p, time.Since(t0), nil
}

// awaitMeta polls /v1/meta until the child answers it.
func (p *proc) awaitMeta(ctx context.Context) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/v1/meta", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("child never answered /v1/meta: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop closes the child's stdin, which makes it exit, and waits for it;
// a child that does not exit promptly is killed. A nil proc is a no-op.
func (p *proc) stop() {
	if p == nil {
		return
	}
	p.stdin.Close()
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}
