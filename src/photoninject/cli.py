"""Command-line frontend.

Subcommands: profiles, plan, modulate, simulate, range, bruteforce,
detect, chirp-test. Exit codes: 0 success, 1 infeasible attack or failed
analysis, 2 usage error, 3 I/O or format error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys

from .errors import (BudgetError, FormatError, ProfileNotFoundError,
                     _check_positive)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _emit(rows, header, fmt):
    if fmt == "csv":
        # sys.stdout is read per call, so that a redirection is honoured
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
                  else len(str(h)) for i, h in enumerate(header)]
        print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))


def cmd_profiles(args) -> int:
    from . import devices

    rows = [(d.name, d.backend, d.category, "yes" if d.requires_auth else "no",
             f"{d.min_power_mw:g}") for d in devices.load_devices()]
    _emit(rows, ["name", "backend", "category", "requires_auth", "min_power_mw"],
          args.format)
    return EXIT_OK


# scenario flag (argparse dest) -> the scenario-file key it sets
_SCENARIO_FLAGS = {
    "device": "device.name",
    "diode": "diode.name",
    "budget_mw": "budget_mw",
    "distance_m": "distance_m",
    "wake_word_matched": "wake_word_matched",
    "trials": "trials",
    "seed": "seed",
}


def _scenario_from_args(args):
    """(scenario, trials) from --scenario and the flags; a flag wins over
    the file's value for its key."""
    from . import injection

    if args.scenario:
        source = args.scenario
        values, lines = injection.read_scenario_file(source)
    elif not args.device or args.budget_mw is None or args.distance_m is None:
        raise ValueError("--device, --budget-mw and --distance-m are required "
                         "when no --scenario file is given")
    else:
        source, values, lines = None, {}, {}
    for dest, key in _SCENARIO_FLAGS.items():
        value = getattr(args, dest, None)
        if value is not None:
            values[key] = value
            lines.pop(key, None)
    return injection.build_scenario(values, source, lines)


def cmd_plan(args) -> int:
    from . import injection

    scenario, _ = _scenario_from_args(args)
    report = injection.simulate_attack(scenario, trials=1)
    op = report.operating_point
    rows = [
        ("device", scenario.device.name),
        ("diode", scenario.diode.name),
        ("beam_visible", "yes" if scenario.path.beam_visible else "no"),
        ("budget_mw", f"{scenario.budget_mw:g}"),
        ("distance_m", f"{scenario.distance_m:g}"),
        ("i_dc_ma", f"{op.bias_ma:.6f}"),
        ("i_pp_ma", f"{op.peak_to_peak_ma:.6f}"),
        ("emitted_mw", f"{report.emitted_mw:.9g}"),
        ("spot_m", f"{report.spot_m:.9g}"),
        ("capture_fraction", f"{report.capture_fraction:.9g}"),
        ("received_mw", f"{report.received_mw:.9g}"),
        ("success_probability", f"{report.success_probability:.6f}"),
        ("feasible", "true" if report.feasible else "false"),
    ]
    if report.notes:
        rows.append(("notes", report.notes))
    _emit(rows, ["field", "value"], args.format)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_modulate(args) -> int:
    from . import diode, wavio
    from . import profiles as profile_store

    out = args.out
    if not out.endswith((".csv", ".wav")):
        raise ValueError(f"--out must end in .csv or .wav, got {out!r}")
    sidecar = args.sidecar
    if sidecar is not None and out.endswith(".csv"):
        raise ValueError(f"--sidecar applies only to a .wav --out, "
                         f"got --out {out!r}")
    # the sidecar, written second, would overwrite the drive
    if sidecar is not None and (os.path.normcase(os.path.abspath(sidecar))
                                == os.path.normcase(os.path.abspath(out))):
        raise ValueError(f"--sidecar must name a file other than --out, "
                         f"got {sidecar!r}")
    audio = wavio.load_wav(args.infile)
    diode_profile = profile_store.get_diode(
        getattr(args, "diode", profile_store.DEFAULT_DIODE))
    op = diode.optimize_operating_point(diode_profile, args.budget_mw)
    drive = diode.modulate(diode_profile, op, audio)
    if out.endswith(".wav"):
        sidecar = sidecar or out[:-4] + ".params.csv"
        diode.save_drive_wav(drive, op, out, sidecar)
        print(f"wrote {out} and {sidecar}")
    else:
        diode.save_drive_csv(drive, out)
        print(f"wrote {out}")
    print(f"operating point: I_DC = {op.bias_ma:.3f} mA, "
          f"I_pp = {op.peak_to_peak_ma:.3f} mA")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import injection

    scenario, trials = _scenario_from_args(args)
    report = injection.simulate_attack(scenario, trials)
    rows = [("device", scenario.device.name),
            ("distance_m", f"{scenario.distance_m:g}")] + report.csv_rows()
    three = injection.consecutive_success_criterion(report.trial_outcomes, 3)
    rows.append(("three_consecutive_success", "true" if three else "false"))
    _emit(rows, ["field", "value"], args.format)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_range(args) -> int:
    from . import diode, injection, optics

    # max_range refocuses at every distance it probes, so the 1 m focus
    # the scenario is built with does not matter
    values = {"device.name": args.device, "budget_mw": args.budget_mw,
              "distance_m": 1.0}
    if "diode" in args:
        values["diode.name"] = args.diode
    scenario, _ = injection.build_scenario(values, None, {})
    device = scenario.device
    op = diode.optimize_operating_point(scenario.diode, args.budget_mw)
    emitted = diode.average_power(scenario.diode, op)
    reach = optics.max_range(scenario.path, scenario.aperture, emitted,
                             device.min_power_mw)
    rows = [("device", device.name),
            ("budget_mw", f"{args.budget_mw:g}"),
            ("emitted_mw", f"{emitted:.9g}"),
            ("required_mw", f"{device.min_power_mw:g}"),
            ("max_range_m", f"{reach:.2f}")]
    if reach >= optics.MAX_RANGE_CAP_M:
        rows.append(("note", "unbounded at model scale"))
    _emit(rows, ["field", "value"], args.format)
    return EXIT_OK if reach > 0 else EXIT_INFEASIBLE


def _parse_policy(spec: str):
    """The LockPolicy a --policy value names."""
    from . import authsim

    kind, *params = spec.split(":")
    kind = kind.replace("_", "-")
    try:
        # N is a count, SECONDS a float
        numbers = [*map(int, params[:1]), *map(float, params[1:])]
    except ValueError:
        kind = None  # not a policy: the usage message below
    if kind == "unlimited" and not numbers:
        return authsim.LockPolicy.unlimited()
    if kind == "max-attempts" and len(numbers) == 1:
        return authsim.LockPolicy.max_attempts(*numbers)
    if kind == "delay-after" and len(numbers) == 2:
        return authsim.LockPolicy.delay_after(*numbers)
    raise ValueError(
        f"bad policy {spec!r}; use unlimited, max-attempts:N or delay-after:N:SECONDS")


def cmd_bruteforce(args) -> int:
    from . import authsim

    policy = _parse_policy(args.policy)
    per_attempt_s = getattr(args, "per_attempt_s",
                            authsim.DEFAULT_PER_ATTEMPT_S)
    et = authsim.expected_time(policy, args.digits, per_attempt_s)
    row = (policy.describe(), args.digits, per_attempt_s, et.worst_s,
           et.mean_s, et.success_prob)
    header = ["policy", "digits", "per_attempt_s", "worst_s", "mean_s",
              "success_prob"]
    # walked before anything is printed, so a bad secret or seed prints nothing
    result = None
    if args.secret is not None:
        # an --order left out keeps the library's default
        order = {"order": args.order} if "order" in args else {}
        result = authsim.enumerate_pins(policy, args.digits, per_attempt_s,
                                        args.secret, seed=args.seed, **order)
        if args.format == "csv":
            header += ["attempts", "elapsed_s", "outcome"]
            row += (result.attempts_made, result.elapsed_s, result.outcome)
    _emit([row], header, args.format)
    if args.format != "csv":
        print(f"worst case: {et.worst_s / 3600:.1f} h, "
              f"mean: {et.mean_s / 3600:.2f} h, "
              f"success probability: {et.success_prob:g}")
        if result is not None:
            print(f"secret {args.secret}: {result.outcome} after "
                  f"{result.attempts_made} attempts, {result.elapsed_s:.1f} s "
                  f"({result.elapsed_s / 3600:.2f} h)")
    unlocked = result is None or result.outcome == "unlocked"
    return EXIT_OK if unlocked else EXIT_INFEASIBLE


def cmd_detect(args) -> int:
    from . import defense

    channel_set = defense.ChannelSet.from_wav(args.infile)
    # a flag left out is absent from args and keeps the library's default
    options = {name: value for name, value in vars(args).items()
               if name in ("threshold", "energy_floor", "frame")}
    verdict = defense.detect_injection(channel_set, **options)
    if args.format != "csv":
        print(f"verdict: {verdict.status}")
        if verdict.notes:
            print(f"notes: {verdict.notes}")
    _emit(verdict.csv_rows(),
          ["channel", "energy", "median_similarity", "implicated"], args.format)
    return EXIT_OK if verdict.status == defense.CLEAN else EXIT_INFEASIBLE


def cmd_chirp_test(args) -> int:
    from . import profiles as profile_store

    # looked up before numpy is loaded, so that an unknown diode exits at
    # once; an unknown microphone does not, as MicProfile's module
    # imports numpy
    diode_profile = profile_store.get_diode(
        getattr(args, "diode", profile_store.DEFAULT_DIODE))
    mic_profile = profile_store.get_mic(args.mic)

    from . import injection, optics, signals

    sweep = signals.generate_chirp(args.f_start, args.f_end, args.duration,
                                   args.sample_rate)
    # checked here, so that a bad distance is named as the flag sets it
    # and not as the path's focus
    _check_positive("distance_m", args.distance_m)
    # a lossless path to a 1 mm port
    path = optics.OpticalPath.ideal(args.distance_m,
                                    diode_profile.wavelength_nm)
    aperture = optics.Aperture(0.001)
    seed = {"rng_seed": args.seed} if "seed" in args else {}
    heard = injection.inject(sweep, diode_profile, args.budget_mw, path,
                             aperture, args.distance_m, mic_profile, **seed)
    spec = signals.spectrogram(heard, frame_length=2048, hop=512)
    # fitted first, so that a spectrogram with no line to fit writes nothing
    slope, intercept, r2 = signals.ridge_line_fit(spec)
    spec.to_csv(args.out)
    expected = (args.f_end - args.f_start) / args.duration
    print(f"wrote {args.out}")
    print(f"ridge slope: {slope:.1f} Hz/s (expected {expected:.1f}), "
          f"intercept {intercept:.1f} Hz, R^2 = {r2:.5f}")
    ok = r2 >= 0.99 and abs(slope - expected) <= 0.05 * max(abs(expected), 1.0)
    print("chirp recovered" if ok else "chirp NOT recovered")
    return EXIT_OK if ok else EXIT_INFEASIBLE


def _add_profiles(sub) -> None:
    p = sub.add_parser("profiles", help="list the target device dataset")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_profiles)


def _add_plan(sub) -> None:
    p = sub.add_parser("plan", help="operating point, link budget and "
                                    "success probability for one scenario")
    p.add_argument("--device")
    p.add_argument("--budget-mw", type=float)
    p.add_argument("--distance-m", type=float)
    p.add_argument("--scenario")
    p.add_argument("--diode")
    # None when absent, so that a file's value stands
    p.add_argument("--wake-word-matched", action="store_true", default=None)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_plan)


def _add_modulate(sub) -> None:
    p = sub.add_parser("modulate", help="turn a WAV command into a drive waveform")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--budget-mw", type=float, required=True)
    p.add_argument("--diode", default=argparse.SUPPRESS)
    p.add_argument("--out", required=True, help="output .csv or .wav path")
    p.add_argument("--sidecar", help="sidecar CSV path for .wav output")
    p.set_defaults(func=cmd_modulate)


def _add_simulate(sub) -> None:
    p = sub.add_parser("simulate", help="run seeded attack trials from a scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_simulate)


def _add_range(sub) -> None:
    p = sub.add_parser("range", help="maximum feasible attack distance")
    p.add_argument("--device", required=True)
    p.add_argument("--budget-mw", type=float, required=True)
    p.add_argument("--diode", default=argparse.SUPPRESS)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_range)


def _add_bruteforce(sub) -> None:
    p = sub.add_parser("bruteforce", help="PIN brute-force timing under a policy")
    p.add_argument("--digits", type=int, required=True)
    p.add_argument("--policy", required=True,
                   help="unlimited | max-attempts:N | delay-after:N:SECONDS")
    p.add_argument("--per-attempt-s", type=float, default=argparse.SUPPRESS)
    p.add_argument("--secret")
    p.add_argument("--order", choices=["ascending", "seeded_shuffle"],
                   default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_bruteforce)


def _add_detect(sub) -> None:
    p = sub.add_parser("detect", help="multi-microphone injection detection")
    p.add_argument("--in", dest="infile", required=True,
                   help="multichannel 16-bit PCM WAV")
    p.add_argument("--threshold", type=float, default=argparse.SUPPRESS)
    p.add_argument("--energy-floor", type=float, default=argparse.SUPPRESS)
    p.add_argument("--frame", type=int, default=argparse.SUPPRESS)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_detect)


def _add_chirp_test(sub) -> None:
    p = sub.add_parser("chirp-test", help="end-to-end chirp through the "
                                          "diode/optics/microphone chain")
    p.add_argument("--out", default="chirp_spectrogram.csv")
    p.add_argument("--f-start", type=float, default=0.0)
    p.add_argument("--f-end", type=float, default=10000.0)
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("--sample-rate", type=int, default=48000)
    p.add_argument("--budget-mw", type=float, default=0.08)
    p.add_argument("--distance-m", type=float, default=0.3)
    p.add_argument("--diode", default=argparse.SUPPRESS)
    p.add_argument("--mic", default="mems-default")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_chirp_test)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser with every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="photoninject",
        description="Laser audio injection planning, simulation and defense")
    sub = parser.add_subparsers(dest="command", required=True)
    # in help-listing order
    for add in (_add_profiles, _add_plan, _add_modulate, _add_simulate,
                _add_range, _add_bruteforce, _add_detect, _add_chirp_test):
        add(sub)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ProfileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
