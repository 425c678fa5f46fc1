import pytest
from hypothesis import given, settings, strategies as st

from tmiusim import host as host_module
from tmiusim.host import HostError, build_system
from tmiusim.image import Manifest, NvmImage
from tmiusim.scenarios import (
    OUTCOME_CLASSES,
    Mutation,
    Scenario,
    ScenarioError,
    builtin_scenarios,
    load_scenarios,
    parse_scenario,
    run_scenario,
)

from tmiusim.tmiu import LockdownError, Tmiu

from conftest import DATA_FILES, image_file_records
from hostile import SuspensionIgnoringCard


@pytest.fixture(scope="module")
def clean_frame_counts(provisioned):
    """Frames per bus target kind in a clean scenario run: boot, then every file read."""
    manifest = provisioned.manifest
    host, _, bus, _ = build_system(manifest, provisioned.image.clone(), trace=True)
    assert host.run_boot(expected_entries=manifest.entries).ok
    for label, _, _ in manifest.files:
        host.read_file(label)
    return {
        "cmd": sum(" KIND=CMD " in line for line in bus.transcript),
        "data": sum(" DIR=C→H KIND=DAT " in line for line in bus.transcript),
    }


class TestParsing:
    def test_full_line(self):
        s = parse_scenario("name=x target=boot_lba:3 mutate=flip_bit:17:5 expect=ImageDigestMismatch")
        assert s == Scenario("x", "boot_lba:3", Mutation("flip_bit", offset=17, bit=5), "ImageDigestMismatch")

    def test_set_byte_and_replace(self):
        s = parse_scenario("target=mbr mutate=set_byte:510:0x00 expect=MbrMismatch")
        assert s.mutation.value == 0
        s = parse_scenario("target=cid mutate=replace_region:" + "ab" * 16 + " expect=NvmMismatch")
        assert s.mutation.data == b"\xab" * 16

    @pytest.mark.parametrize("value", ["256", "-1", "0x100"])
    def test_set_byte_value_outside_a_byte_is_rejected(self, value):
        with pytest.raises(ScenarioError):
            parse_scenario(f"target=data_lba:0 mutate=set_byte:0:{value} expect=SectorTagMismatch")
        with pytest.raises(ScenarioError):
            Mutation("set_byte", value=int(value, 0))

    def test_rejects_unknown_outcome(self):
        with pytest.raises(ScenarioError):
            parse_scenario("target=mbr mutate=flip_bit:0:0 expect=Nonsense")

    def test_rejects_missing_fields(self):
        with pytest.raises(ScenarioError):
            parse_scenario("target=mbr expect=MbrMismatch")
        with pytest.raises(ScenarioError):
            parse_scenario("target=mbr mutate=warp:1 expect=MbrMismatch")

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        line=st.one_of(
            st.text(max_size=120),
            st.lists(
                st.builds(
                    "{}={}".format,
                    st.sampled_from(["name", "target", "mutate", "expect", ""]),
                    st.one_of(
                        st.text(st.characters(blacklist_categories=("Zs", "Cc")), max_size=20),
                        st.builds(
                            "{}:{}:{}".format,
                            st.sampled_from(["flip_bit", "set_byte", "replace_region", "copy_from", ""]),
                            st.text(max_size=6),
                            st.text(max_size=6),
                        ),
                        st.sampled_from(OUTCOME_CLASSES),
                    ),
                ),
                max_size=5,
            ).map(" ".join),
        )
    )
    def test_parse_raises_only_its_format_error(self, line):
        try:
            parse_scenario(line)
        except ScenarioError:
            pass

    def test_file_loading(self, tmp_path):
        path = tmp_path / "suite.txt"
        path.write_text(
            "# comment line\n"
            "\n"
            "name=a target=mbr mutate=flip_bit:0:0 expect=MbrMismatch\n"
            "target=data_lba:0 mutate=flip_bit:1:1 expect=SectorTagMismatch\n"
        )
        suite = load_scenarios(path)
        assert [s.name for s in suite] == ["a", "line4"]


class TestBuiltins:
    def test_threat_model_coverage(self):
        names = set(builtin_scenarios())
        assert {
            "device_swap",
            "card_swap",
            "cid_corrupt",
            "mbr_tamper",
            "mbr_partition_tamper",
            "bootimage_bitflip",
            "data_sector_tamper",
            "integrity_region_tamper",
            "sector_replay",
            "bus_cmd_bitflip",
            "bus_data_bitflip",
        } <= names

    @pytest.mark.parametrize("name", sorted(builtin_scenarios()))
    def test_builtin_outcome_matches_expectation(self, name, provisioned):
        scenario = builtin_scenarios()[name]
        observed, report = run_scenario(scenario, provisioned.image, provisioned.manifest)
        assert observed == scenario.expect, f"{name}: {observed} != {scenario.expect}"

    def test_original_image_untouched_by_runs(self, provisioned):
        before = provisioned.image.to_bytes()
        run_scenario(builtin_scenarios()["mbr_tamper"], provisioned.image, provisioned.manifest)
        assert provisioned.image.to_bytes() == before


class TestRunScenario:
    def test_replay_to_same_region_caught_by_index_bound_tags(self, provisioned):
        scenario = parse_scenario("target=data_lba:2 mutate=copy_from:1 expect=SectorTagMismatch")
        observed, _ = run_scenario(scenario, provisioned.image, provisioned.manifest)
        assert observed == "SectorTagMismatch"

    def test_replay_of_identical_plaintext_sector_still_caught(self):
        # The hardest replay: source and target sectors hold the same
        # plaintext, so only the index binding of keystream and tag differs.
        from tmiusim import CardIdentity, DeviceIdentity, EntryKind, LockdownError, build_system
        from tmiusim.image import provision

        result = provision(
            [(EntryKind.KERNEL, b"k" * 600)],
            [("a.bin", bytes(512)), ("b.bin", bytes(512))],
            DeviceIdentity(dna=0x77),
            CardIdentity.from_seed(b"replay"),
            kdf_repetitions=3,
        )
        records = {r.label: r for r in image_file_records(result.image, result.manifest)}
        layout = result.layout
        lba_a = layout.data_start + records["a.bin"].offset // 512
        lba_b = layout.data_start + records["b.bin"].offset // 512
        assert result.image.read_sector(lba_a) != result.image.read_sector(lba_b)

        work = result.image.clone()
        work.write_sector(lba_b, work.read_sector(lba_a))
        host, tmiu, _, _ = build_system(result.manifest, work)
        assert host.run_boot().ok
        assert host.read_file("a.bin") == bytes(512)
        with pytest.raises(LockdownError):
            host.read_file("b.bin")
        assert tmiu.fault_lba == lba_b

    def test_unmutated_run_is_clean(self, provisioned):
        scenario = parse_scenario("target=bus:cmd:3 mutate=flip_bit:1:1 expect=OsRunning")
        observed, report = run_scenario(scenario, provisioned.image, provisioned.manifest)
        assert observed == "OsRunning"
        assert report.stage == "Operational"

    def test_a_file_whose_bytes_disagree_with_the_manifest_is_a_tag_mismatch(self, provisioned):
        # The card is clean; the manifest's digest line of the last file is
        # not what it holds, so the sweep reads that file back as wrong bytes.
        label, length, digest = provisioned.manifest.files[-1]
        line = f"file={label},{length},{digest}"
        text = provisioned.manifest.to_text()
        assert text.count(line) == 1
        manifest = Manifest.from_text(text.replace(line, f"file={label},{length},{'0' * 64}"))
        scenario = builtin_scenarios()["bus_data_bitflip"]
        assert run_scenario(scenario, provisioned.image, provisioned.manifest)[0] == "OsRunning"
        observed, report = run_scenario(scenario, provisioned.image, manifest)
        assert observed == "SectorTagMismatch"
        assert report.stage == "Operational"

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        kind=st.sampled_from(["cmd", "data"]),
        nth=st.integers(1, 80),
        offset=st.integers(0, 513),
        bit=st.integers(0, 7),
    )
    def test_any_single_wire_bit_flip_has_an_outcome(
        self, provisioned, clean_frame_counts, kind, nth, offset, bit
    ):
        # A fixture boot plus file sweep sends 44 command and 62 data frames.
        # Up to the faulted frame a run is the clean run, so a fault fires
        # exactly when the clean run sends its frame.
        line = f"target=bus:{kind}:{nth} mutate=flip_bit:{offset}:{bit} expect=OsRunning"
        scenario = parse_scenario(line)
        if nth > clean_frame_counts[kind]:
            with pytest.raises(ScenarioError, match="never fired"):
                run_scenario(scenario, provisioned.image, provisioned.manifest)
        else:
            observed, _ = run_scenario(scenario, provisioned.image, provisioned.manifest)
            assert observed in OUTCOME_CLASSES

    @pytest.mark.parametrize("target", ["bus:cmd:0", "bus:cmd:-4", "bus:data:0", "bus:data:100000"])
    def test_bus_fault_that_cannot_fire_is_rejected(self, provisioned, target):
        scenario = parse_scenario(f"target={target} mutate=flip_bit:2:0 expect=OsRunning")
        with pytest.raises(ScenarioError):
            run_scenario(scenario, provisioned.image, provisioned.manifest)

    def test_fault_on_the_last_frame_still_fires(self, provisioned, clean_frame_counts):
        for kind, count in clean_frame_counts.items():
            scenario = parse_scenario(f"target=bus:{kind}:{count} mutate=flip_bit:2:0 expect=OsRunning")
            observed, _ = run_scenario(scenario, provisioned.image, provisioned.manifest)
            assert observed in OUTCOME_CLASSES

    @pytest.mark.parametrize(
        "target, mutate", [("meta_lba:0", "flip_bit:0:0"), ("data_lba:0", "copy_from:70")]
    )
    def test_sector_past_a_short_image_is_rejected(self, provisioned, target, mutate):
        short = NvmImage(provisioned.image.read_sectors(0, provisioned.layout.data_start + 10))
        scenario = parse_scenario(f"target={target} mutate={mutate} expect=SectorTagMismatch")
        with pytest.raises(ScenarioError):
            run_scenario(scenario, short, provisioned.manifest)

    def test_out_of_range_target_rejected(self, provisioned):
        for target in ("boot_lba:100000", "data_lba:zz", "bus:cmd:x"):
            line = f"target={target} mutate=flip_bit:0:0 expect=ImageDigestMismatch"
            scenario = parse_scenario(line)
            with pytest.raises(ScenarioError):
                run_scenario(scenario, provisioned.image, provisioned.manifest)

    def test_dna_mutation_must_change_value(self, provisioned):
        # Flipping a bit above the 57-bit range is rejected, not masked.
        scenario = parse_scenario("target=device_dna mutate=flip_bit:0:7 expect=DeviceMismatch")
        with pytest.raises(ScenarioError):
            run_scenario(scenario, provisioned.image, provisioned.manifest)


_LOCKDOWN_SCENARIOS = sorted(name for name, s in builtin_scenarios().items() if s.expect != "OsRunning")


class TestSuspensionIgnoringCard:
    """A card that answers after ``suspend_io``: once the unit has locked
    down, neither the unit nor the host sends it anything."""

    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("name", _LOCKDOWN_SCENARIOS)
    def test_nothing_reaches_the_card_after_a_lockdown(self, provisioned, monkeypatch, name, trace):
        systems = []

        def building(*args, **kwargs):
            systems.append(build_system(*args, trace=trace, **kwargs))
            return systems[-1]

        lockdown = Tmiu._lockdown

        def marking(tmiu, *args, **kwargs):
            systems[-1][3].calls.append("lockdown")
            return lockdown(tmiu, *args, **kwargs)

        monkeypatch.setattr(host_module, "VirtualCard", SuspensionIgnoringCard)
        monkeypatch.setattr("tmiusim.scenarios.build_system", building)
        monkeypatch.setattr(Tmiu, "_lockdown", marking)
        scenario = builtin_scenarios()[name]
        assert run_scenario(scenario, provisioned.image, provisioned.manifest)[0] == scenario.expect
        (host, tmiu, bus, card), = systems
        # Every way in, from the host and from the unit, after the lockdown.
        label, blob = DATA_FILES[0]
        data_start = provisioned.layout.data_start
        for attempt in (
            lambda: host.read_file(label),
            lambda: host.write_file(label, blob),
            lambda: tmiu.authenticate_memory(bus),
            lambda: tmiu.verify_mbr_and_image(bus, lambda item: None),
            lambda: tmiu.mediate_read(bus, data_start),
            lambda: tmiu.mediate_write(bus, data_start, bytes(512)),
            host.run_boot,
        ):
            with pytest.raises((HostError, LockdownError)):
                attempt()
        assert card.calls.count("lockdown") == 1
        assert card.calls[card.calls.index("lockdown") + 1 :] in ([], ["suspend_io"])
