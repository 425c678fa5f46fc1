import pytest

from tmiusim.scenarios import (
    Mutation,
    Scenario,
    ScenarioError,
    builtin_scenarios,
    load_scenarios,
    parse_scenario,
    run_scenario,
)


class TestParsing:
    def test_full_line(self):
        s = parse_scenario("name=x target=boot_lba:3 mutate=flip_bit:17:5 expect=ImageDigestMismatch")
        assert s == Scenario("x", "boot_lba:3", Mutation("flip_bit", offset=17, bit=5), "ImageDigestMismatch")

    def test_set_byte_and_replace(self):
        s = parse_scenario("target=mbr mutate=set_byte:510:0x00 expect=MbrMismatch")
        assert s.mutation.value == 0
        s = parse_scenario("target=cid mutate=replace_region:" + "ab" * 16 + " expect=NvmMismatch")
        assert s.mutation.data == b"\xab" * 16

    def test_rejects_unknown_outcome(self):
        with pytest.raises(ScenarioError):
            parse_scenario("target=mbr mutate=flip_bit:0:0 expect=Nonsense")

    def test_rejects_missing_fields(self):
        with pytest.raises(ScenarioError):
            parse_scenario("target=mbr expect=MbrMismatch")
        with pytest.raises(ScenarioError):
            parse_scenario("target=mbr mutate=warp:1 expect=MbrMismatch")

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
        from tmiusim.image import image_file_records, provision

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
