"""Reference implementations the differential tests compare against."""


def patch_in_oracles(patch):
    """Route the schedulers through the dict MRT and the modulo
    scheduler through the scalar FindTimeSlot scan.

    ``patch`` is a pytest ``MonkeyPatch`` (or one of its contexts), which
    restores the shipped kernels when it is undone.
    """
    import repro.baselines.list_scheduler as list_scheduler_module
    import repro.core.scheduler as scheduler_module
    from tests.oracles.findtimeslot import scalar_find_time_slot
    from tests.oracles.mrt import (
        dict_linear_reservations,
        dict_modulo_reservations,
    )

    patch.setattr(
        scheduler_module, "ModuloReservations", dict_modulo_reservations
    )
    patch.setattr(
        scheduler_module.IterativeScheduler,
        "_find_time_slot",
        scalar_find_time_slot,
    )
    patch.setattr(
        list_scheduler_module, "LinearReservations", dict_linear_reservations
    )
